(** The end-to-end verification pipeline (the paper's Fig. 1 workflow),
    with the per-stage timing breakdown of Table IV.

    Stages: decode the trace (offset/fid resolution, §IV-B) → detect
    conflicts (§IV-B) → match MPI calls and build the happens-before graph
    (§IV-C) → prepare the happens-before engine (§IV-D, e.g. generate
    vector clocks) → verify (§IV-D, Fig. 3 pruning).

    Two entry points cover the two cost profiles:

    - {!verify} runs all five stages for one model — the paper's exact
      measurement unit (each Table IV column is one such run).
    - {!prepare} runs the four model-independent stages once and returns a
      {!prepared} value from which {!verify_prepared} derives a per-model
      verdict; the decoded trace, conflict groups, happens-before graph
      and engine state are shared across models. {!verify_shared} bundles
      the two. Verdicts are bit-identical to {!verify} (property-tested) —
      every shared stage is deterministic and model-independent.

    In {!Recorder.Diagnostic.Lenient} mode the pipeline degrades
    gracefully instead of raising: every stage absorbs what it cannot
    decode, the happens-before graph is built on the salvageable subset,
    and the {!degradation} summary accounts for everything given up. Race
    verdicts that rest on a degraded region are tagged
    {!Verify.Under_degradation}.

    Every stage reports wall time and headline counters to
    {!Vio_util.Metrics} (keys [pipeline/stage/*], [conflict/*], [graph/*],
    [reach/*], [verify/*]). *)

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
    four builtin models does ~4× less stage work than four {!verify} calls
    — the batch engine's core saving (see {!Batch}).

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
    on raw trace records. Parameters are those of {!verify} minus the
    model. When [engine] is omitted it is selected from the graph size and
    conflict count ({!Reach.recommend}); the choice applies to every model
    verified from this [prepared].

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
    defense against pathological traces. *)

val prepare_file :
  ?engine:Reach.engine ->
  ?mode:Recorder.Diagnostic.mode ->
  ?upstream:Recorder.Diagnostic.t list ->
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
    this). Codec diagnostics arrive through the store, so [upstream] is
    only for faults collected before the file existed.

    In strict mode raises {!Recorder.Codec.Malformed} on undecodable
    input and [Sys_error] if the file cannot be read. *)

val verify_prepared :
  ?pruning:bool -> model:Model.t -> prepared -> outcome
(** Derive one model's verdict from prepared artifacts. Only the verify
    stage runs; the outcome's read/conflicts/graph/engine timings are the
    shared preparation's (identical across models of one [prepared]), and
    [t_total] is preparation plus this model's verification. *)

val verify :
  ?engine:Reach.engine ->
  ?pruning:bool ->
  ?mode:Recorder.Diagnostic.mode ->
  ?upstream:Recorder.Diagnostic.t list ->
  ?partial:bool ->
  ?budget:Vio_util.Budget.t ->
  model:Model.t ->
  nranks:int ->
  Recorder.Record.t list ->
  outcome
(** Run the full pipeline on raw trace records — equivalent to {!prepare}
    followed by {!verify_prepared}. When [engine] is omitted it is
    selected dynamically from the graph size and conflict count
    ({!Reach.recommend}, the paper's planned extension); the choice is
    reported in [engine_used].

    [mode] defaults to strict: any internal inconsistency raises
    {!Estore.Malformed}. With [~mode:Lenient] the pipeline never raises on a
    degraded trace. [upstream] carries diagnostics already collected by an
    earlier stage (typically a lenient {!Recorder.Codec.decode_ext}); they
    join the degradation summary and taint the ranks they name. *)

val verify_all_models :
  ?engine:Reach.engine ->
  ?models:Model.t list ->
  nranks:int ->
  Recorder.Record.t list ->
  (Model.t * outcome) list
(** One {e independent} pass per model (default {!Model.builtin}),
    sharing nothing — each timed end-to-end, re-deriving the trace
    artifacts every time. This is the sequential baseline the differential
    tests compare the batch engine against; prefer {!verify_shared} when
    the timings need not be independent. *)

val verify_shared :
  ?engine:Reach.engine ->
  ?pruning:bool ->
  ?mode:Recorder.Diagnostic.mode ->
  ?upstream:Recorder.Diagnostic.t list ->
  ?partial:bool ->
  ?budget:Vio_util.Budget.t ->
  ?models:Model.t list ->
  nranks:int ->
  Recorder.Record.t list ->
  (Model.t * outcome) list
(** One {!prepare} shared by every model in [models] (default
    {!Model.builtin}, in the paper's order). Verdicts are identical to
    {!verify_all_models}; only the cost differs. *)

val verify_file :
  ?engine:Reach.engine ->
  ?pruning:bool ->
  ?mode:Recorder.Diagnostic.mode ->
  ?upstream:Recorder.Diagnostic.t list ->
  ?partial:bool ->
  ?budget:Vio_util.Budget.t ->
  model:Model.t ->
  string ->
  outcome
(** {!verify} over a trace file via the fused {!prepare_file} path. *)

val verify_shared_file :
  ?engine:Reach.engine ->
  ?pruning:bool ->
  ?mode:Recorder.Diagnostic.mode ->
  ?upstream:Recorder.Diagnostic.t list ->
  ?partial:bool ->
  ?budget:Vio_util.Budget.t ->
  ?models:Model.t list ->
  string ->
  (Model.t * outcome) list
(** {!verify_shared} over a trace file via the fused {!prepare_file}
    path: decode, conflicts, graph and engine run once, streamed from
    disk, then every model verifies against the shared artifacts. *)

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
