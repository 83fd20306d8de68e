(** Domain-parallel, fault-isolated batch verification — many (trace ×
    model) verifications across OCaml domains, one preparation per trace.

    An extension beyond the paper, whose evaluation (§V) verifies its 91
    test executions strictly sequentially, re-running the whole pipeline
    for each of the four models. This engine restructures that corpus
    work along two axes:

    - {b sharing}: each job's preparation runs once (decode, conflicts,
      happens-before graph and engine; typically
      {!Pipeline.prepare_file} or {!Pipeline.prepare}), and every
      requested model is verified from it ({!Pipeline.verify_prepared})
      — ~4× less stage work than the sequential per-model pipeline for
      the builtin model set;
    - {b parallelism}: jobs are claimed from a shared-counter task queue
      by [domains] worker domains. A job, its preparation included,
      never spans domains, so the memoizing happens-before engine stays
      domain-local and no verification state is shared.

    Every job ends in a verdict or a verdict about its failure, never an
    exception: the supervisor loop of [verifyio serve] and of long
    fuzzing or corpus-verification campaigns. Verdicts are bit-identical
    to the sequential pipeline for every domain count
    (qcheck-property-tested in [test/test_batch.ml]): job claiming only
    decides {e which} domain runs a job, and each job is a deterministic
    function of its inputs. *)

type job = {
  name : string;  (** label for reports; not interpreted *)
  prepare : Vio_util.Budget.t -> Pipeline.prepared;
      (** the caller's preparation, run on the worker domain once per
          attempt with that attempt's budget, which it must pass to the
          pipeline: the budget carries the job's step and wall-clock
          bounds *)
  models : Model.t list;  (** models to verify, in output order *)
  budget : int option;
      (** per-attempt step budget ({!Pipeline.prepare}'s stage charges);
          [None] = unbounded *)
  timeout_ms : int option;
      (** per-attempt wall-clock bound, enforced cooperatively at the
          budget's charge points ({!Vio_util.Budget.Deadline_exceeded});
          [None] = the run's default *)
}

val job :
  ?models:Model.t list ->
  ?budget:int ->
  ?timeout_ms:int ->
  name:string ->
  (Vio_util.Budget.t -> Pipeline.prepared) ->
  job
(** Job constructor; [models] defaults to {!Model.builtin}, [budget] to
    unbounded and [timeout_ms] to the run's default.
    @raise Invalid_argument if [timeout_ms] is [< 1]. *)

val default_domains : unit -> int
(** [min 8 (Domain.recommended_domain_count ())] — the worker count used
    when [?domains] is omitted. *)

val effective_domains : int option -> int
(** The worker count a [?domains] request actually gets: requests are
    clamped to [Domain.recommended_domain_count ()] (a domain per
    hardware thread is the useful maximum — more would only contend).
    Reports record this value, not the request.

    @raise Invalid_argument if the request is [< 1]. *)

type status =
  | Done of (Model.t * Pipeline.outcome) list
      (** verified; one outcome per requested model, in [models] order *)
  | Timed_out of { stage : string; limit : int; used : int }
      (** the job's step budget ran out in [stage]. Deterministic, so the
          job is {e not} retried — the same trace with the same budget
          always times out at the same step. A {e wall-clock} overrun
          (the job's [timeout_ms]) also lands here, with [stage] suffixed
          ["(wall clock)"] and [limit]/[used] in milliseconds — but only
          after the retry allowance is spent, because wall time, unlike
          steps, depends on machine load. *)
  | Quarantined of { attempts : int; error : string }
      (** the job raised on every attempt; [error] is the last exception.
          A malformed trace ({!Pipeline.is_malformed}) is quarantined
          after one attempt, because the same bytes fail the same way.
          The trace should be set aside for offline inspection. *)

type isolated = {
  i_job : job;
  i_status : status;
  i_wall : float;  (** wall-clock seconds across all attempts *)
  i_attempts : int;  (** attempts actually made (1 = no retry needed) *)
}

val default_timeout_ms : int
(** The per-job wall-clock bound {!run_isolated} applies to jobs that do
    not set their own: 60_000 ms. The CLI exposes it as [--timeout-ms]. *)

val run_isolated :
  ?domains:int ->
  ?retries:int ->
  ?timeout_ms:int ->
  ?backoff_ms:int ->
  job list ->
  isolated list
(** Run every job with per-job fault isolation: an exception is caught on
    the worker domain, retried up to [retries] more times (default 1),
    and finally quarantined; a {!Vio_util.Budget.Exhausted} becomes
    {!Timed_out} and a malformed trace {!Quarantined}, both immediately;
    a {!Vio_util.Budget.Deadline_exceeded} is retried (with
    {!Vio_util.Backoff} waits of [backoff_ms·2^(k-1)] between attempts;
    [backoff_ms] defaults to 0 = no wait) and becomes {!Timed_out} when
    the allowance is spent. Every job is bounded: [timeout_ms] (default
    {!default_timeout_ms}) is applied to jobs without their own. Results
    are in job order regardless of scheduling; [domains = 1] (or a single
    job) runs inline with no domain spawned, and requests above
    {!effective_domains} are clamped. Never raises on a job failure.

    @raise Invalid_argument if [domains < 1], [retries < 0],
    [timeout_ms < 1] or [backoff_ms < 0]. *)
