(** The content-addressed result cache.

    A verdict is a pure function of [(trace bytes, model definition,
    verification flags, codec version)] — the pipeline is deterministic
    end to end — so the cache key is the SHA-256 of exactly that tuple,
    and repeat submissions (CI re-running the same build produces
    byte-identical traces) resolve in O(hash) without decoding anything.

    The model enters the key as its name {e plus} its definition digest
    ({!Verifyio.Model.msc_digest}): a registered model whose MSCs are
    later redefined under the same name can never collide with verdicts
    cached under the old definition.

    Entries live at [cache/<key[0..1]>/<key>.json] and are written with
    the stage-then-rename protocol ({!Vio_util.Fsio.atomic_write}): a
    crash at any instant leaves either no entry or a complete one, never
    a torn file. Entry contents are fully deterministic (no timestamps,
    no walls), which is what makes the torture campaign's strongest
    assertion possible: a cache entry written by a daemon that was SIGKILLed and
    restarted mid-batch is byte-identical to one computed by a fresh
    sequential run. *)

val codec_version : string
(** The combined version stamp of both trace formats the daemon reads
    ({!Recorder.Codec.magic} and {!Recorder.Codec.magic_v2} +
    {!Recorder.Codec.binary_version}) — bumping either format
    invalidates every cached verdict by changing all keys. *)

val key :
  trace_sha256:string -> model:Verifyio.Model.t -> flags:string -> string
(** The entry key: SHA-256 over the canonical tuple rendering (newline-
    separated fields: trace digest, model name, model definition digest,
    flags, codec version). *)

val entry_path : dir:string -> key:string -> string
(** Where the entry lives under the cache directory (two-hex-char
    sharding so directories stay small at campaign scale). *)

val lookup : dir:string -> key:string -> string option
(** The entry's exact bytes, or [None] on a miss. *)

val store : dir:string -> key:string -> string -> unit
(** Atomically install an entry (idempotent: identical bytes by
    construction, so a concurrent or repeated store is harmless). *)

val verdict_json :
  flags:string ->
  trace_sha256:string ->
  lenient:bool ->
  partial:bool ->
  model:Verifyio.Model.t ->
  Verifyio.Pipeline.outcome ->
  Vio_util.Json.t
(** The canonical cached-verdict document for one model's outcome:
    verdict counters, per-race pairs with confidence (capped at
    {!max_race_pairs} with an explicit truncation marker), and the
    verify-style exit code ({!Verifyio.Pipeline.exit_code}).
    Deterministic — contains no timings. *)

val max_race_pairs : int
(** Cap on the per-race listing inside an entry (500). *)

val render : Vio_util.Json.t -> string
(** The exact byte rendering stored in (and compared against) cache
    entries: [Json.to_string] plus a trailing newline. *)
