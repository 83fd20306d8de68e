(** The robustness campaign, run by [verifyio torture]: systematic fault
    injection across every registered {!Vio_util.Failpoint} site, through
    every execution path that owns one — codec reads
    ({!Verifyio.Pipeline.prepare_file}, the path [verify FILE] and serve
    jobs take), isolated batch jobs that read their traces on the worker,
    and the full submit/serve/recover protocol — plus SIGKILL of a child
    daemon, asserting the global robustness invariants:

    - an injected fault either leaves the verdict {e digest-identical}
      to the fault-free run (absorbed by a retry) or surfaces as a
      {e documented} error ({!Vio_util.Failpoint.Injected},
      [Codec.Malformed], [Estore.Malformed], [Sys_error], a budget
      overrun) — never an undocumented crash;
    - a daemon killed by an injected fault or by SIGKILL recovers on
      restart: every job reaches a terminal response with its expected
      status, [done] verdict bytes equal {!fresh_entry}'s, no orphans
      remain in [incoming/] or [claimed/], no [.tmp.*] staging debris
      survives, and the final journal replay reports nothing unfinished.

    The two cache-degrading serve scenarios read {!Daemon.summary}'s
    [cache_store_failures] from the faulted incarnation's result and fail
    when it is zero.

    A kill scenario spawns [exe serve --once --domains 1] with the
    [fsio.fsync=delay:20] policy, which holds the child in the
    durability point right after each journal append, and SIGKILLs it
    once the journal holds exactly K job transitions, K drawn from the
    seed between 1 and the unfinished jobs. A child that exits first,
    dies otherwise, or dies after a different count is a violation. Its
    jobs are the seed's two traces, a malformed trace (quarantined) and a
    one-step budget (timed out); after the recovery check, every [done]
    job is resubmitted under a fresh id and must be answered from the
    cache.

    Per seed: eleven codec-read scenarios (binary strict and lenient,
    text strict), four isolated-batch scenarios ([batch.worker] and
    [codec.read] faults inside a job's attempt; the jobs add the seed's
    program cut by a rank abort and by a tail truncation, read leniently
    with partial matching), eight failpoint serve scenarios, and two kill
    scenarios (one kill; two kills in a row). Every scenario is
    reproducible from its spec and the campaign seed alone. The default
    campaign (9 seeds × 25 scenarios = 225) clears the 200-scenario floor
    docs/robustness.md documents; [smoke] runs one seed for CI. *)

type config = {
  seeds : int;  (** workload seeds; 25 scenarios each *)
  base_seed : int;  (** first workload seed *)
  root : string option;
      (** scratch directory (temporary and removed when [None]) *)
  quiet : bool;
}

val default : config
(** 9 seeds from base 100, temporary scratch root, not quiet. *)

type report = {
  t_scenarios : int;  (** scenarios executed *)
  t_exact : int;  (** faults fully absorbed: digest equal to fault-free *)
  t_faulted : int;
      (** surfaced as a documented error, or a daemon killed and
          recovered *)
  t_crashes : int;
      (** daemon incarnations killed (by a fault or SIGKILL) and
          recovered *)
  t_violations : (string * string) list;  (** (scenario, what broke) *)
}

val fresh_entry : Spool.jobspec -> Verifyio.Model.t -> string
(** The ground-truth cache entry for one job and model: the job's trace
    read with {!Verifyio.Pipeline.prepare_file} and verified in process,
    sequentially, under the job's flags and step budget, and rendered
    through the same {!Cache.verdict_json} the daemon uses. It runs
    through neither {!Daemon} nor {!Verifyio.Batch}, because the
    campaign byte-compares recovered verdicts against it. *)

val run : exe:string -> config -> report
(** Execute the campaign; [exe] is the verifyio executable the kill
    scenarios spawn as [serve] children. Leaves the failpoint fabric
    cleared whatever happens. Raises [Invalid_argument] on [seeds < 1]. *)

val pp_report : Format.formatter -> report -> unit
