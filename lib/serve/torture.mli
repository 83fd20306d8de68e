(** The failpoint torture campaign: systematic fault injection across
    every registered {!Vio_util.Failpoint} site, through every execution
    path that owns one — codec reads, batch workers, and the full
    submit/serve/recover protocol — asserting the global robustness
    invariants:

    - an injected fault either leaves the verdict {e digest-identical}
      to the fault-free run (absorbed by a retry or a supervisor
      fallback) or surfaces as a {e documented} error
      ({!Vio_util.Failpoint.Injected}, [Codec.Malformed],
      [Estore.Malformed], [Sys_error], a budget overrun) — never an
      undocumented crash;
    - a daemon killed by an injected fault recovers on restart: every
      job reaches a terminal response whose verdict bytes equal a fresh
      sequential run's, no orphans remain in [incoming/] or [claimed/],
      no [.tmp.*] staging debris survives, and the final journal replay
      reports nothing unfinished.

    Supervisor fallbacks are tallied but no scenario requires one: the
    only spawned domains are {!Verifyio.Batch}'s workers, and the
    [batch.worker] site fires inside the per-job capture, so no fabric
    site can kill a worker domain.

    Every scenario is reproducible from its [site=policy] spec and the
    campaign seed alone. The default campaign (9 seeds × 23 scenarios =
    207) clears the 200-scenario floor docs/robustness.md documents;
    [smoke] runs one seed for CI. *)

type config = {
  seeds : int;  (** workload seeds; 23 scenarios each *)
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
  t_faulted : int;  (** surfaced as a documented error *)
  t_fallbacks : int;  (** supervisor sequential fallbacks observed *)
  t_crashes : int;  (** daemon crashes injected and recovered *)
  t_violations : (string * string) list;  (** (scenario, what broke) *)
}

val run : config -> report
(** Execute the campaign. Leaves the failpoint fabric cleared whatever
    happens. Raises [Invalid_argument] on [seeds < 1]. *)

val pp_report : Format.formatter -> report -> unit
