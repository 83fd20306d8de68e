(** The `verifyio serve` daemon loop: watch a spool, schedule admitted
    jobs through the {!Verifyio.Batch.run_isolated} supervisor, cache
    verdicts content-addressed, and survive being killed at any instant.

    One cycle: admit ([incoming/] → [claimed/], gated by the
    {!Vio_util.Budget}-driven high-water mark), probe the cache (every
    model cached → respond in O(hash); a trace that cannot be hashed is
    quarantined here), run the cache misses as one supervised wave, each
    job streaming its trace into the store on its worker
    ({!Verifyio.Pipeline.prepare_file}) and inheriting the batch engine's
    retries, step budgets, wall-clock watchdog with exponential backoff,
    and quarantine, then durably finish each job in write-ahead order:
    cache entries first, response file second, journal [finished] third,
    claimed file removed last. A crash between any two steps is recovered
    by journal replay — re-enqueued jobs recompute idempotently (or hit
    the cache entries the dead daemon already installed).

    On startup, {!run} replays the journal: in-flight jobs are
    re-enqueued unless they have crashed more than [crash_retries]
    incarnations, in which case they are moved to [quarantine/] with a
    structured response instead of crash-looping the service.

    Shutdown is graceful on SIGTERM/SIGINT (the CLI passes the signal
    flag as [stop]): the in-flight wave finishes, its responses and
    journal records are flushed, a [drained] marker is appended, and the
    daemon exits 0. *)

type config = {
  root : string;  (** spool root directory *)
  domains : int option;  (** worker domains for the batch wave *)
  retries : int;  (** per-job retry allowance (see {!Verifyio.Batch}) *)
  timeout_ms : int;  (** per-job wall-clock watchdog *)
  backoff_ms : int;  (** base of the exponential retry backoff *)
  default_budget : int option;
      (** step budget applied to jobs that do not carry their own *)
  hwm : int;
      (** admission high-water mark: queue depth (claimed + newly
          admitted) beyond which submissions are rejected with a
          structured [overloaded] response *)
  crash_retries : int;  (** journal-replay crash budget per job *)
  poll_ms : int;  (** idle sleep between spool scans *)
  once : bool;  (** drain the spool, then exit instead of polling *)
  quiet : bool;  (** suppress per-job log lines *)
}

val default : root:string -> config
(** [retries 1], [timeout_ms] {!Verifyio.Batch.default_timeout_ms},
    [backoff_ms 50], [hwm 64], [crash_retries] {!Journal.crash_budget},
    [poll_ms 200], [once false], [quiet false]. *)

type summary = {
  cycles : int;
  admitted : int;
  replayed : int;  (** jobs re-enqueued from the journal at startup *)
  completed : int;  (** terminal responses written, any status *)
  cache_hits : int;  (** jobs answered entirely from the cache *)
  overloaded : int;  (** submissions rejected by admission control *)
  quarantined : int;
      (** jobs quarantined, crash-loop offenders included *)
  cache_store_failures : int;
      (** verdicts whose cache store failed: the job still ends [done]
          with its verdict, and the next identical submission
          recomputes it *)
  drained : bool;  (** true when [stop] triggered the graceful exit *)
}

val run : ?stop:bool Atomic.t -> config -> summary
(** Run the loop until the spool is drained ([once]), or [stop] flips to
    true (the signal path — checked between waves, so in-flight jobs
    finish first). Never raises on a job failure; job-independent faults
    (an unwritable spool) do escape. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line; [cache_store_failures] appears only when non-zero. *)
