(** The service spool: the on-disk queue `verifyio serve` watches and
    `verifyio submit` feeds.

    Layout under one root directory:

    {v
    <root>/
      incoming/     <id>.job      submitted, not yet admitted
      claimed/      <id>.job      admitted; survives a daemon crash
      responses/    <id>.json     one response per job, terminal
      quarantine/   <id>.job      poison jobs set aside for inspection
      cache/        content-addressed verdict cache (see {!Cache})
      journal.jsonl               write-ahead job journal (see {!Journal})
    v}

    Every file is written with {!Vio_util.Fsio.atomic_write}
    (stage-then-rename), so no reader — the daemon, a client polling for
    its response, or a recovery pass — ever sees a torn artifact.
    Admission moves a job from [incoming/] to [claimed/] with a rename,
    which both claims it atomically and preserves it for journal replay
    if the daemon dies mid-job. *)

type t = {
  root : string;
  incoming : string;
  claimed : string;
  responses : string;
  quarantine : string;
  cache : string;
  journal : string;  (** journal file path, not a directory *)
}

val layout : string -> t
(** Resolve (and create, [mkdir -p]-style) the spool directories under a
    root. Idempotent; also sweeps staging debris ([*.tmp.*]) a crashed
    writer may have left in [incoming/] and [responses/]. *)

(** {2 Job specifications} *)

type jobspec = {
  id : string;  (** unique per submission; names all per-job artifacts *)
  trace : string;  (** path to the trace file (made absolute at submit) *)
  models : string list;  (** model names, in output order *)
  lenient : bool;
  partial : bool;
  budget : int option;
  timeout_ms : int option;
}

val jobspec_to_json : jobspec -> Vio_util.Json.t

val jobspec_of_json : Vio_util.Json.t -> (jobspec, string) result
(** [Error] names the first missing or ill-typed field, or a [budget] or
    [timeout_ms] below 1. Every spec the daemon admits or replays passes
    through here, whoever wrote the [.job] file. *)

val flags_string : jobspec -> string
(** The canonical rendering of a spec's verification configuration —
    one component of the cache key. Model-independent: two specs that
    differ only in [models] share it, so each model's verdict caches
    separately. E.g. ["lenient=false;partial=true;budget=none"].
    ([timeout_ms] is deliberately excluded: it bounds {e whether} a
    verdict is produced, never its content.) *)

val submit : t -> jobspec -> string
(** Atomically drop the spec into [incoming/]; returns the job-file
    path. The trace path is stored as given — callers wanting
    daemon-cwd-independence should pass it absolute. *)

(** {2 Responses} *)

type response = {
  r_id : string;
  r_status : string;
      (** ["done"] | ["timed_out"] | ["quarantined"] | ["overloaded"]
          | ["rejected"] *)
  r_exit : int;
      (** the verify-style exit code a synchronous run would have
          returned: 0 clean, 2 races (or rejection), 5 partial, 6 budget,
          7 quarantined, 8 overloaded *)
  r_cached : bool;  (** every model verdict came from the result cache *)
  r_wall_ms : int;
  r_attempts : int;
  r_error : string option;  (** for quarantined/rejected/overloaded *)
  r_verdicts : (string * Vio_util.Json.t) list;
      (** (model, cached-verdict document) in [models] order; the exact
          bytes stored under the cache key, re-parsed *)
}

val write_response : t -> response -> unit
(** Atomically (re)write [responses/<id>.json]. *)

val read_response : t -> id:string -> (response, string) result
(** Parse a response back (used by [submit --wait] and the torture
    campaign's recovery check); [Error] when absent or torn. *)

val response_path : t -> id:string -> string

val pending_depth : t -> int
(** Jobs currently admitted but unfinished ([claimed/] population) —
    the queue-depth measure admission control compares against its
    high-water mark. *)
