(** Trace mutations: the tail-truncated traces the torture campaign's
    isolated batch jobs read.

    Unlike {!Recorder.Inject}, which corrupts encoded bytes, these operate
    on decoded record lists and always leave a {e well-formed} trace — the
    records that survive re-encode cleanly and decode strictly. What they
    model is a rank that stopped early (the paper's unmatched-call runs):
    the trace is intact, but one rank's call stream ends before its peers',
    so collectives lose participants and sends lose receivers. Partial MPI
    matching is exactly the machinery that must absorb this. *)

val truncate_rank_tail :
  rank:int -> keep:int -> Recorder.Record.t list -> Recorder.Record.t list
(** Drop every record of [rank] with a per-rank sequence number [>= keep]
    — the trace a rank that died after its [keep]-th call would have
    left. Other ranks are untouched; per-rank sequence numbers stay
    gap-free, so the result decodes in strict mode.

    @raise Invalid_argument if [keep < 0]. *)

val rank_length : rank:int -> Recorder.Record.t list -> int
(** Number of records the given rank contributed. *)

val random_truncation :
  seed:int ->
  nranks:int ->
  Recorder.Record.t list ->
  Recorder.Record.t list * (int * int)
(** Seeded truncation: pick a rank and a cut point (at least one record
    kept, at least one cut when possible) as a pure function of [seed],
    and return the mutated records with the [(rank, keep)] chosen. A rank
    with one or zero records is returned unchanged. *)
