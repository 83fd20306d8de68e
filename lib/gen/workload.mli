(** Seeded random workload generation for differential fuzzing.

    A {!program} is a flat list of {!step}s over the simulated stack —
    POSIX and MPI-IO data operations, point-to-point messages (wildcard
    and non-blocking included), blocking and non-blocking collectives,
    communicator splits, and the synchronization idioms real codes use
    (fsync-then-barrier, close/barrier/reopen sessions, send-recv
    chains). Missing-synchronization scenarios need no special casing:
    the generator simply does not always emit the sync half of an idiom,
    so a stream of programs covers both racy and properly-synchronized
    executions of the same shapes.

    Programs are deterministic twice over: {!generate} is a pure
    function of its seed, and {!run} executes on the deterministic
    {!Mpisim.Engine} scheduler, so a (seed, step list) pair always
    yields the same trace structure.

    Every subset of a program's steps is itself a valid program: the
    interpreter skips steps whose prerequisites were removed (an MPI-IO
    access whose collective open is gone, a collective on a split that
    no longer exists falls back to the world communicator) —
    identically on every rank, so no removal can introduce a mismatch
    or deadlock. {!Diff.shrink} leans on this to minimize failing
    programs by plain step deletion. *)

type comm =
  | World
  | Split of int
      (** the communicator this rank obtained from the program's n-th
          {!Comm_split} step; out-of-range (e.g. after shrinking away
          the split) falls back to {!World} *)

type coll = Barrier | Allreduce | Bcast | Allgather | Ibarrier

type profile = Classic | Extended
(** [Classic] (the default) draws exactly the historical step mix — a
    given seed's program is byte-identical to what it always was, which
    the golden-digest gate depends on. [Extended] adds the workload
    shapes the extended consistency models distinguish (checkpoint/
    restart, cross-phase handoffs, third-party commits, read-modify-
    write, truncation) and widens the dataset to up to four files. *)

type step =
  | Pwrite of { rank : int; file : int; off : int; len : int }
  | Pread of { rank : int; file : int; off : int; len : int }
  | Fsync of { rank : int; file : int }  (** commit-class sync *)
  | Reopen of { rank : int; file : int }
      (** close then open — the two halves of a session boundary *)
  | Coll of { comm : comm; coll : coll }
  | P2p of { src : int; dst : int; wildcard : bool; nonblocking : bool }
      (** one message, tag = step position; [wildcard] receives with
          [MPI_ANY_SOURCE], [nonblocking] uses isend/irecv + wait *)
  | Chain of comm
      (** send-recv chain: comm rank i receives from i-1, sends to i+1
          — a happens-before path through every member *)
  | Comm_split of { ways : int }  (** color = world rank mod ways *)
  | M_open of { comm : comm; file : int; cb : bool }
      (** collective [MPI_File_open] of the same file namespace the
          POSIX steps use; [cb] forces collective buffering
          ([romio_cb_write=enable]), re-routing bytes through the
          aggregator rank's descriptor *)
  | M_write_at_all of { handle : int; off : int; len : int; each : bool }
      (** collective write; [each] shifts every rank to a disjoint
          slot ([off + comm_rank * len]), otherwise all ranks target
          the same range *)
  | M_read_at_all of { handle : int; off : int; len : int; each : bool }
  | M_write_at of { rank : int; handle : int; off : int; len : int }
  | M_read_at of { rank : int; handle : int; off : int; len : int }
  | M_sync of { handle : int }
  | M_close of { handle : int }
  | Overlap_ibarrier of { file : int; off : int; len : int }
      (** [MPI_Ibarrier], a per-rank disjoint [pwrite] while the
          collective is in flight, then the wait *)
  | Ckpt of { file : int; stride : int; publish : int }
      (** striped checkpoint: every rank writes
          [[rank*stride, (rank+1)*stride)], publishes per flavour
          (0 = fsync, 1 = close/reopen, 2 = nothing), then a world
          barrier *)
  | Restart of { file : int; stride : int; shift : int }
      (** N→M restart remap: every rank reads the stripe rank
          [(rank+shift) mod nranks] checkpointed — the reader set no
          longer matches the writer set *)
  | Handoff of {
      file : int;
      off : int;
      len : int;
      producer : int;
      consumer : int;
      via_stream : bool;
      publish : int;
      notify : int;
    }
      (** producer-consumer across phases: the producer writes (through
          a stream when [via_stream] — the close-to-open corner, since
          stream close publishes under Session but not under NFS
          semantics), publishes per flavour (0 = sync, 1 = close/reopen,
          2 = nothing), notification flows by [notify] (0 = barrier,
          1 = chain, 2 = point-to-point), then the consumer reopens the
          file and reads *)
  | Foreign_sync of {
      file : int;
      writer : int;
      syncer : int;
      off : int;
      len : int;
    }
      (** third-party commit: the writer writes, a barrier, the [syncer]
          — possibly a different rank — fsyncs, a barrier, everyone else
          reads. Properly synchronized under Commit (any rank's commit
          publishes) but not under Commit-PS when [syncer <> writer] *)
  | Rmw of { rank : int; file : int; off : int; len : int }
      (** read-modify-write: a pread then a pwrite of the same range *)
  | Trunc of { rank : int; file : int; size : int }
      (** [ftruncate] — moves EOF under every later size-dependent
          operation *)

type program = {
  seed : int;
  nranks : int;  (** 2–4 by default; anything ≥ 2 under an override *)
  nfiles : int;  (** POSIX/MPI-IO shared file namespace, 1–2 files *)
  steps : step list;
}

val generate :
  ?max_steps:int -> ?nranks:int -> ?profile:profile -> seed:int -> unit -> program
(** Deterministic in [seed]. [max_steps] (default 16) bounds the step
    count; idiom expansions may exceed it by a step or two. [profile]
    defaults to {!Classic}, under which not a single extra random draw
    happens — historical seeds stay byte-identical.

    [nranks] overrides the default 2–4 rank draw (values below 2 are
    ignored) — the interval-index campaign runs 64–256 ranks this way.
    The override leaves the seed's random stream untouched (the default
    draw is still consumed), so [generate ~seed ()] output never depends
    on whether other callers override. Above 4 ranks the generator also
    widens communicator structure: up to four concurrent splits, each
    2–16-way (scaled to the rank count), instead of the two 2–3-way
    splits small programs use. *)

val run : ?abort_rank:int * int -> program -> Recorder.Record.t list
(** Execute on a fresh traced stack. The interpreter wraps the steps in
    a fixed prologue (every rank opens the files; rank 0 seeds base
    contents; barrier) and epilogue (close surviving MPI-IO handles,
    barrier, close the files), so session and EOF state are always
    well-defined. [abort_rank] is forwarded to {!Mpisim.Engine.run}: the
    given rank crashes at the start of its (n+1)-th MPI operation,
    leaving in-flight records — the rank-abort mutation the torture
    campaign's isolated batch jobs read. *)

val step_to_string : step -> string

val pp_program : Format.formatter -> program -> unit
(** Multi-line rendering, one numbered step per line — the shape a
    shrunken repro is reported in. *)
