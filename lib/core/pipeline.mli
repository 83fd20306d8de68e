(** The end-to-end verification pipeline (the paper's Fig. 1 workflow),
    with the per-stage timing breakdown of Table IV.

    Stages: decode the trace (offset/fid resolution, §IV-B) → detect
    conflicts (§IV-B) → match MPI calls and build the happens-before graph
    (§IV-C) → prepare the happens-before engine (§IV-D, e.g. generate
    vector clocks) → verify (§IV-D, Fig. 3 pruning).

    Three entry points run it. The first four stages do not depend on
    the consistency model: {!prepare} (decoded records) or {!prepare_file}
    (a trace file, streamed) runs them once and returns a {!prepared}
    value. {!verify_prepared} then runs the verify stage for one model.
    A run over several models is a [List.map] of {!verify_prepared} over
    one [prepared], which shares the decoded trace, conflict groups,
    happens-before graph and engine state. Verdicts do not depend on the
    sharing: every stage is deterministic and model-independent. A caller
    that needs per-model timings independent of each other (each Table IV
    column is one such run) prepares once per model.

    In {!Recorder.Diagnostic.Lenient} mode the pipeline degrades
    gracefully instead of raising: every stage absorbs what it cannot
    decode, the happens-before graph is built on the salvageable subset,
    and the {!degradation} summary accounts for everything given up. Race
    verdicts that rest on a degraded region are tagged
    {!Verify.Under_degradation}.

    A run's numbers come back only in its {!outcome}: stage wall times
    ({!timings}), pruning-rule hits and check totals ({!Verify.stats}),
    conflict and graph sizes. Nothing is recorded process-wide, so runs
    on concurrent domains never mix their counts. *)

type timings = {
  t_read : float;  (** decode records into operations *)
  t_conflicts : float;  (** conflict detection (interval sweep) *)
  t_graph : float;  (** MPI matching + happens-before graph construction *)
  t_engine : float;  (** engine preparation, e.g. vector clock generation *)
  t_verify : float;  (** MSC verification of every conflict group *)
  t_total : float;  (** sum of the five stages *)
}

type degradation = {
  records_lost : int;
      (** records truncated, unreadable, or deduplicated away *)
  ops_degraded : int;
      (** ops downgraded to {!Estore.Other} during decoding *)
  fds_orphaned : int;  (** I/O calls on descriptors whose open was lost *)
  chains_broken : int;  (** call chains that could not be resolved *)
  epilogues_missing : int;  (** calls that never returned *)
  unmatched_mpi : int;  (** unmatched MPI diagnostics (§V-D) *)
  graph_fallback : bool;
      (** true when the happens-before graph had to be rebuilt without MPI
          edges *)
  diagnostics : Recorder.Diagnostic.t list;
      (** everything absorbed, pipeline-wide and in stage order (upstream
          codec diagnostics first when supplied) *)
}

val no_degradation : degradation
(** The all-zero summary a strict (or pristine lenient) run reports. *)

type outcome = {
  model : Model.t;  (** the consistency model this verdict is against *)
  mode : Recorder.Diagnostic.mode;  (** strict or lenient decoding *)
  races : Verify.race list;  (** every data race found, sorted by op pair *)
  race_count : int;  (** [List.length races] *)
  unmatched : Match_mpi.unmatched list;
      (** unmatched MPI calls — nonempty means verification is incomplete
          (the gray rows of Fig. 4) *)
  inventory : Match_mpi.entry list;
      (** the structured unmatched-call inventory, populated when the run
          used partial matching: one entry per unmatched call plus one per
          participant of every event dropped during partial graph
          construction. Empty for non-partial runs (use [unmatched]). *)
  dropped_events : int;
      (** matched MPI events dropped by partial graph construction because
          their edges formed a cycle; always 0 without partial matching *)
  conflicts : int;  (** distinct unordered conflicting pairs *)
  graph_nodes : int;  (** happens-before graph size, synthetic joins included *)
  graph_edges : int;
  stats : Verify.stats;  (** pruning-rule hit counts and check totals *)
  timings : timings;
  decoded : Estore.t;  (** the decoded trace (for report rendering) *)
  engine_used : Reach.engine;
      (** the engine that served this run's happens-before queries *)
  degradation : degradation;
}

type prepared
(** The model-independent artifacts of one trace, computed once: decoded
    operations, conflict groups, MPI matching, happens-before graph,
    prepared happens-before engine, sync-op index, degradation summary and
    the four preparation-stage timings. Sharing one [prepared] across the
    four builtin models does ~4× less stage work than preparing once per
    model — the batch engine's core saving (see {!Batch}).

    A [prepared] value must be used from one domain at a time: the
    happens-before engine inside it memoizes and counts queries. *)

val prepare :
  ?engine:Reach.engine ->
  ?mode:Recorder.Diagnostic.mode ->
  ?upstream:Recorder.Diagnostic.t list ->
  ?partial:bool ->
  ?budget:Vio_util.Budget.t ->
  nranks:int ->
  Recorder.Record.t list ->
  prepared
(** Run the four model-independent stages (read, conflicts, graph, engine)
    on raw trace records. When [engine] is omitted it is selected from the
    graph size and conflict count ({!Reach.recommend}, the paper's planned
    extension); the choice applies to every model verified from this
    [prepared] and is reported in each outcome's [engine_used].

    [mode] defaults to strict: any internal inconsistency raises
    {!Estore.Malformed}. With [~mode:Lenient] the pipeline never raises on
    a degraded trace. [upstream] carries diagnostics already collected by
    an earlier stage (typically a lenient {!Recorder.Codec.decode_ext});
    they join the degradation summary and taint the ranks they name.

    [partial] (default false) enables partial MPI matching: unmatched
    calls are recorded in the structured inventory instead of tainting the
    whole trace, inconsistent matched events are dropped from the
    happens-before graph individually ({!Hb_graph.build_partial}) rather
    than all at once, and verdicts on implicated ranks downgrade to
    {!Verify.Under_partial_order}.

    [budget], when given, is charged a deterministic step count per stage
    (decode: records; conflicts: pairs; graph: edges; engine: nodes;
    verify: properly-synchronized checks) and the pipeline aborts with
    {!Vio_util.Budget.Exhausted} when it runs out — the supervisor's
    defense against pathological traces. The [prepared] value keeps the
    budget, so one budget covers the shared stages once and then every
    model verified from it. *)

val prepare_file :
  ?engine:Reach.engine ->
  ?mode:Recorder.Diagnostic.mode ->
  ?partial:bool ->
  ?budget:Vio_util.Budget.t ->
  string ->
  prepared
(** {!prepare}, fused with decoding: the trace file streams straight into
    {!Estore} columns via {!Recorder.Codec.fold_records} (text or binary,
    auto-detected by magic) — no [Recorder.Record.t] list is ever
    materialized, so peak memory is bounded by the store's columns rather
    than scaling with an intermediate per-record structure. This is the
    path to use for large on-disk traces; verdicts are byte-identical to
    reading the file and calling {!prepare} (the golden-digest gate locks
    this). Codec diagnostics arrive through the store.

    In strict mode raises {!Recorder.Codec.Malformed} on undecodable
    input and [Sys_error] if the file cannot be read. *)

val is_malformed : exn -> bool
(** Whether strict {!prepare} or {!prepare_file} raised [exn] to refuse
    its input ({!Recorder.Codec.Malformed}, {!Estore.Malformed}). The same
    input fails the same way on every attempt, so retrying cannot help. *)

val verify_prepared :
  ?pruning:bool -> model:Model.t -> prepared -> outcome
(** Derive one model's verdict from prepared artifacts. Only the verify
    stage runs; the outcome's read/conflicts/graph/engine timings are the
    shared preparation's (identical across models of one [prepared]), and
    [t_total] is preparation plus this model's verification. *)

val is_properly_synchronized : outcome -> bool
(** No races and no unmatched MPI calls (Def. 8). *)

val is_degraded : outcome -> bool
(** True when the lenient pipeline had to give anything up. *)

val verified_under_partial_order : outcome -> bool
(** No races, but a nonempty unmatched-call inventory: the trace is
    properly synchronized {e modulo} the ordering its unmatched calls
    would have contributed (the partial-matching analogue of Def. 8's
    clean verdict; CLI exit code 5). *)

val definite_races : outcome -> Verify.race list
(** The races whose verdicts do not rest on degraded trace regions. *)

val exit_code : lenient:bool -> partial:bool -> outcome -> int
(** The exit status of one model's verdict, shared by [verifyio verify]
    and the cached verdicts of [verifyio serve]: 0 clean, 2 races, 5
    race-free modulo a non-empty unmatched inventory. Under [lenient]
    only {!definite_races} count; under [partial] unmatched calls
    downgrade the verdict to 5 instead of failing it. *)

val combine_exits : int list -> int
(** The exit status of a run over several models: any 2 dominates, then
    5, then 0. *)
