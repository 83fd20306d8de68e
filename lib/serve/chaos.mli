(** The chaos campaign: empirical validation of the daemon's crash
    safety, run by `verifyio chaos`.

    The campaign builds a spool of seeded {!Viogen.Workload} traces —
    plus one deliberately malformed trace and one job with a one-step
    budget, so the quarantine and timeout paths are exercised every run
    — then repeatedly spawns the daemon as a child process
    ([<exe> serve --once]), lets it run for a seeded-random slice, and
    SIGKILLs it mid-batch. After [kills] rounds a final child runs to
    completion, and the validator checks the crash-safety contract:

    - {b termination}: every submitted job has a terminal response
      ([done], [timed_out] or [quarantined] — never lost, never
      duplicated);
    - {b byte-identity}: for every [done] job and model, the cache
      entry's bytes equal a fresh, sequential, in-process
      {!Verifyio.Pipeline.verify} rendered through the same
      {!Cache.verdict_json} — recovery must not perturb verdicts;
    - {b warm cache}: resubmitting every [done] job under a fresh id
      is answered entirely from the cache ([r_cached = true]).

    Violations are collected, not raised, so one broken invariant does
    not hide the rest. *)

type config = {
  root : string;  (** campaign directory (spool + generated traces) *)
  exe : string;  (** the verifyio executable to spawn as the daemon *)
  jobs : int;  (** well-formed generated jobs (≥ 1) *)
  kills : int;  (** SIGKILL rounds before the clean run (≥ 0) *)
  seed : int;  (** drives trace generation and kill timing *)
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

val run : config -> report
(** Execute the campaign. @raise Invalid_argument on a non-positive
    [jobs] or negative [kills]. *)

val pp_report : Format.formatter -> report -> unit
