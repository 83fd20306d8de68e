(** The differential check: every optimized verification path against
    the naive {!Verifyio.Oracle}, plus greedy shrinking of programs
    whose verdicts diverge.

    One {!check} compares, per model of the oracle verdicts it is given
    (the builtin four, or any registry subset), the race-pair set,
    conflict-pair count and unmatched-MPI count of each subject against
    the oracle's:

    - [engine:<name>] — one {!Verifyio.Pipeline.prepare} pinned to each
      {!Verifyio.Reach} engine, then {!Verifyio.Pipeline.verify_prepared}
      for every model;
    - [sequential] — one {!Verifyio.Pipeline.prepare} per model, the
      nothing-shared baseline;
    - [shared] — one {!Verifyio.Pipeline.prepare} with dynamic engine
      selection, shared by every model. The batch runner verifies a job
      exactly this way, and its verdict identity across domain counts is
      the batch tests' job, not the fuzzer's.

    A {!mutation} lets the test suite break one subject on purpose and
    confirm the harness catches and shrinks it — the mutation smoke
    check of the fuzz tests. *)

type divergence = {
  subject : string;  (** e.g. ["engine:vector-clock"], ["shared"] *)
  model : string;
  expected : string;  (** rendered oracle verdict *)
  got : string;  (** rendered subject verdict *)
}

val pp_divergence : Format.formatter -> divergence -> unit

type mutation = {
  target : string;
      (** subject-name prefix the mutation applies to; [""] hits all *)
  rewrite : (int * int) list -> (int * int) list;
      (** applied to the matching subjects' race-pair lists before
          comparison — simulates a broken engine *)
}

val subject_names : string list
(** The subjects a {!check} compares, in comparison order. *)

val check :
  ?mutation:mutation ->
  oracle:(Verifyio.Model.t * Verifyio.Oracle.verdict) list ->
  nranks:int ->
  Recorder.Record.t list ->
  divergence list
(** Check every subject against [oracle], the {!Verifyio.Oracle.verify}
    verdicts of these records, on the oracle's models. Empty means every
    subject agreed with the oracle on every model. Strict decoding;
    raises like the pipeline would on a malformed trace (generated
    traces never are). *)

val check_program :
  ?mutation:mutation ->
  ?models:Verifyio.Model.t list ->
  Workload.program ->
  divergence list
(** {!Workload.run}, {!Verifyio.Oracle.verify} on [models] (default the
    builtin four), then {!check}. *)

val shrink :
  ?budget:int ->
  interesting:(Workload.program -> bool) ->
  Workload.program ->
  Workload.program
(** Greedy delta-debugging over the step list: repeatedly delete the
    largest chunk of steps that keeps [interesting] true (halving the
    chunk size down to single steps), until a pass removes nothing or
    the evaluation [budget] (default 400 candidate runs) is spent. The
    input must itself be interesting; every candidate is a valid
    program by {!Workload}'s subset-closure property. *)
