(** Columnar event store: canonical operations decoded from raw trace
    records (workflow step 2 preprocessing), held as a struct-of-arrays.

    Decoding assigns every file a unique identifier (the paper's [fid]) by
    tracking [open]/[fopen]/[MPI_File_open] calls and following descriptors,
    streams and MPI-IO handles — including descriptor reuse after close and
    the "same file through different handle types" corner case. Offsets for
    calls without explicit position arguments ([write], [read], [fwrite],
    [fread]) are reconstructed by replaying each handle's file pointer and a
    per-file EOF, updated in global timestamp order (§IV-B's (FP, EOF)
    tracking).

    Only POSIX-layer calls become data operations: every higher-level data
    call eventually nests the POSIX call that actually touches the file, so
    counting both would double-count conflicts. Higher layers contribute
    synchronization and the MPI records the matcher consumes.

    Unlike the boxed representation this replaces, the store keeps one flat
    column per field — int arrays for ranks, sequence numbers, timestamps
    and interval bounds, byte arrays for small enums and flags — with all
    strings interned in a per-trace {!Vio_util.Strpool.t}. An op is an
    index [0 .. length - 1]; indices are assigned in (rank, seq, arrival)
    order, exactly the order the boxed decoder produced. Downstream passes
    read the columns they need and never materialize per-op records on hot
    paths; {!record} and {!kind} exist for cold paths (reports, error
    rendering). *)

type api = Fd | Stream | Mpiio_handle
(** Which handle family a file-scoped call went through: a POSIX file
    descriptor, a stdio stream, or an MPI-IO file handle. *)

type kind =
  | Data of { fid : int; write : bool; iv : Vio_util.Interval.t }
  | File_open of { fid : int; api : api }
  | File_close of { fid : int; api : api }
  | File_sync of { fid : int; api : api }
      (** [fsync]/[fflush] (commit-class) and [MPI_File_sync]. *)
  | Mpi_call  (** any MPI communication/collective record *)
  | Meta      (** seeks, truncates, metadata queries *)
  | Other

type t
(** A decoded trace: immutable after construction, safe to share
    read-only across domains. *)

exception Malformed of string
(** Raised when the trace is internally inconsistent (unknown descriptor,
    I/O on a closed handle, unparsable arguments). *)

(** {1 Construction} *)

val of_records :
  ?mode:Recorder.Diagnostic.mode ->
  nranks:int ->
  Recorder.Record.t list ->
  t
(** Strict mode (default) raises {!Malformed} on the first inconsistency.
    Lenient mode never raises: records that cannot be classified are kept
    as {!Other} (preserving program order for the happens-before graph),
    flagged {!degraded}, and explained in {!diagnostics}; in-flight calls
    and I/O on descriptors whose open was lost are reported likewise.
    Records attributed to out-of-range ranks are dropped.

    Op indices follow a stable sort by (rank, seq), so records with equal
    keys keep their input order. Records that arrive in that order, as
    both codecs deliver them, are copied into the columns a chunk at a
    time; only other input is permuted. Classification replays the ops
    in [tstart] order, equal timestamps in op index, i.e. (rank, seq),
    order; {!Vio_util.Intsort.order} merges the rank chains, which are
    usually each in [tstart] order already. One load forces one major GC
    cycle, to reclaim the staging columns before the classification
    columns are allocated. *)

val of_file : ?mode:Recorder.Diagnostic.mode -> string -> t
(** Decode a trace file straight into the store, streaming records through
    {!Recorder.Codec.fold_records} — no [Record.t list] is ever built, so
    peak memory is the columns plus one codec block. The store is built
    as {!of_records} builds it: the same op order, [tstart] tie order and
    one major GC cycle. Codec diagnostics precede decode diagnostics in
    {!diagnostics}, as in the two-step boxed path. The load runs with the
    major GC's [space_overhead] lowered to 40; concurrent loads share one
    override, which is restored when the last of them returns. *)

(** {1 Store-wide accessors} *)

val length : t -> int
val nranks : t -> int

val files : t -> (string * int) list
(** Path to fid mapping, in fid order. *)

val fid_of_path : t -> string -> int option
(** Reverse lookup in {!files}: the fid a path was assigned, if opened. *)

val diagnostics : t -> Recorder.Diagnostic.t list
(** Losses absorbed by lenient decoding, in classification order; always
    empty in strict mode. *)

val rank_chain : t -> int -> int array
(** [rank_chain e r] is the per-rank op index chain in program order. *)

(** {1 Per-op scalar columns}

    All take an op index in [0 .. length - 1]; none allocate. *)

val rank : t -> int -> int
val seq : t -> int -> int
val tstart : t -> int -> int
val tend : t -> int -> int
val layer : t -> int -> Recorder.Record.layer
val func : t -> int -> string
val ret : t -> int -> string

val func_id : t -> int -> int
(** The op's function name as an id of the store's string pool: two ops
    call the same function exactly when their ids are equal. Lets hot
    loops dispatch on an int compare instead of a string match. *)

val func_id_of_name : t -> string -> int
(** The id {!func_id} returns for ops calling the named function, or [-1]
    when no string of the store has that name (then no op has it). *)

val in_flight : t -> int -> bool
(** Did the call never return (ret is {!Recorder.Trace.in_flight_ret})? *)

val degraded : t -> int -> bool
(** True when the op could not be fully decoded and was downgraded to
    {!Other}. *)

val nargs : t -> int -> int

val arg : t -> int -> int -> string
(** [arg e i j] is the op's [j]-th argument.
    @raise Failure as {!Recorder.Record.arg} on an out-of-range index. *)

val int_arg : t -> int -> int -> int
(** @raise Failure as {!Recorder.Record.int_arg} on a non-integer. *)

(** {1 Classification columns} *)

val kind_tag : t -> int -> int
(** Dense kind encoding for hot-loop dispatch; one of the [tag_*]
    constants below. *)

val tag_data : int
val tag_open : int
val tag_close : int
val tag_sync : int
val tag_mpi : int
val tag_meta : int
val tag_other : int

val is_data : t -> int -> bool
(** Is the op a {!Data} access (the only kind conflict detection sees)? *)

val is_write : t -> int -> bool
(** Is the op a {!Data} write? [false] for reads and non-data ops. *)

val fid : t -> int -> int
(** File identifier for file-scoped ops ({!Data}, open/close/sync); [-1]
    otherwise. *)

val fid_opt : t -> int -> int option
(** {!fid} as an option, for cold paths. *)

val iv_lo : t -> int -> int
(** Data interval start; 0 for non-data ops. *)

val iv_hi : t -> int -> int
(** Data interval end (exclusive); 0 for non-data ops. *)

val iv : t -> int -> Vio_util.Interval.t
(** Boxed interval (allocates). *)

val api_of : t -> int -> api option
(** Handle family for open/close/sync ops. *)

(** {1 Cold-path materialization} *)

val kind : t -> int -> kind
(** The op's classification as a variant (allocates for {!Data} and the
    file ops). *)

val record : t -> int -> Recorder.Record.t
(** Reassemble the raw trace record behind an op (allocates; reports and
    error paths only). *)

val pp : t -> Format.formatter -> int -> unit
(** One-line rendering: rank, seq, function and decoded kind. *)
