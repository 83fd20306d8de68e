(** The evaluation harness: runnable test cases mirroring the paper's 91
    built-in library tests.

    Each workload is a rank program over the simulated I/O stack, tagged
    with the verdicts the paper's methodology predicts for it:
    [exp_posix]/[exp_relaxed] say whether the execution is properly
    synchronized under POSIX and under the three relaxed models (the paper
    found Commit, Session and MPI-IO always agree on these suites — a
    property the integration tests assert), and [exp_unmatched] marks the
    executions that cannot complete verification because of unmatched MPI
    calls (the gray rows of Fig. 4). *)

type library = Hdf5 | Netcdf | Pnetcdf

val library_name : library -> string

type expectation = {
  exp_posix : bool;
  exp_relaxed : bool;
  exp_unmatched : bool;
}

type env = {
  fs : Posixfs.Fs.t;
  h5 : Hdf5sim.H5.system;
  nc : Netcdfsim.Netcdf.system;
  pn : Pncdf.Pnetcdf.system;
  pn_buggy : Pncdf.Pnetcdf.system;
      (** PnetCDF with the split-wait implementation bug enabled *)
}

type t = {
  name : string;
  library : library;
  nranks : int;
  scale : int;  (** default size multiplier; benches may raise it *)
  expect : expectation;
  program : scale:int -> Mpisim.Engine.ctx -> env -> unit;
}

val clean : expectation
(** Properly synchronized everywhere. *)

val relaxed_racy : expectation
(** POSIX-clean but racy under the relaxed models. *)

val posix_racy : expectation
(** Racy under every model. *)

val unmatched : expectation

val run : ?scale:int -> ?abort_rank:int * int -> t -> Recorder.Record.t list
(** Execute the workload on a fresh traced stack (engine aborts from
    deliberate collective misuse are caught; the partial trace is
    returned). [abort_rank] is forwarded to {!Mpisim.Engine.run}: the
    given rank crashes after its MPI-call budget, yielding an organically
    degraded trace with in-flight records. *)

val verify :
  ?scale:int -> ?engine:Verifyio.Reach.engine -> t ->
  (Verifyio.Model.t * Verifyio.Pipeline.outcome) list
(** Run, then verify against all four builtin models from one
    {!Verifyio.Pipeline.prepare}: the trace is decoded and its
    happens-before graph built once, not per model. Verdicts are
    identical to preparing once per model. *)

val matches_expectation :
  t -> (Verifyio.Model.t * Verifyio.Pipeline.outcome) list -> bool
(** Check the outcomes against the workload's tagged expectation. *)
