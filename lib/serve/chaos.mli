(** The chaos campaign: empirical validation of the daemon's crash
    safety, run by `verifyio chaos`.

    The campaign builds a spool of seeded {!Viogen.Workload} traces —
    plus one deliberately malformed trace and one job with a one-step
    budget, so the quarantine and timeout paths are exercised every run
    — then repeatedly spawns the daemon as a child process
    ([<exe> serve --once]) and SIGKILLs it once its journal holds a
    seeded-random number of new job transitions ([started] or [finished]
    records), at most the number of unfinished jobs, so the kill lands
    mid-batch however fast the daemon works. After [kills] rounds a
    final child runs to completion, and the validator checks the
    crash-safety contract:

    - {b exercised}: with [kills] > 0, at least one kill landed;
    - {b termination}: every submitted job has a terminal response
      ([done], [timed_out] or [quarantined] — never lost, never
      duplicated);
    - {b byte-identity}: for every [done] job and model, the cache
      entry's bytes equal {!fresh_entry} — recovery must not perturb
      verdicts;
    - {b warm cache}: resubmitting every [done] job under a fresh id
      is answered entirely from the cache ([r_cached = true]).

    Violations are collected, not raised, so one broken invariant does
    not hide the rest. *)

type config = {
  root : string;  (** campaign directory (spool + generated traces) *)
  exe : string;  (** the verifyio executable to spawn as the daemon *)
  jobs : int;  (** well-formed generated jobs (≥ 1) *)
  kills : int;  (** SIGKILL rounds before the clean run (≥ 0) *)
  seed : int;  (** drives trace generation and kill points *)
  domains : int option;  (** forwarded to the child daemons *)
  quiet : bool;
}

val default : root:string -> exe:string -> config
(** [jobs 20], [kills 4], [seed 7], [domains None], [quiet false]. *)

type report = {
  total : int;  (** jobs submitted (generated + malformed + budget) *)
  done_ : int;
  timed_out : int;
  quarantined : int;
  kills_delivered : int;  (** children that were actually SIGKILLed *)
  replay_walls : float list;
      (** wall-clock seconds of each child run that ran to completion
          after the kills (journal replay included) — the
          recovery-latency sample *)
  warm_cached : int;  (** warm resubmissions answered from cache *)
  warm_total : int;
  violations : string list;  (** empty = the contract held *)
}

val fresh_entry : Spool.jobspec -> Verifyio.Model.t -> string
(** The ground-truth cache entry for one job and model: the job's trace
    read with {!Verifyio.Pipeline.prepare_file} and verified in process,
    sequentially, under the job's flags and step budget, and rendered
    through the same
    {!Cache.verdict_json} the daemon uses. It runs through neither
    {!Daemon} nor {!Verifyio.Batch}, because the chaos and torture
    campaigns byte-compare their entries against it. *)

val run : config -> report
(** Execute the campaign. @raise Invalid_argument on a non-positive
    [jobs] or negative [kills]. *)

val pp_report : Format.formatter -> report -> unit
