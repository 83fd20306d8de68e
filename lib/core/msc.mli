(** MSC checking: the properly-synchronized relation (Def. 5 & 6).

    [X -ps-> Y] holds iff
    - [X] is a read and [X -hb-> Y]; or
    - [X] is a write and one of the model's MSCs can be instantiated
      between [X] and [Y]: sync operations [S1..Sk] on the conflicting
      file with the model's [po]/[hb] edges linking
      [X, S1, ..., Sk, Y].

    The chain search tries at most one sync per rank at each step. If a
    later sync on some rank completes the chain, the earliest sync on
    that rank which the incoming edge admits completes it too: it comes
    before the later one in program order, and [po ⊆ hb]. Reachability
    from a fixed op is monotone along a rank's program order, so a binary
    search over the rank's matching syncs finds that earliest sync. A
    [po] step looks only at the previous op's rank. An [hb] step looks at
    every rank, or only at [Y]'s rank when every later edge is [po]
    (Session, MPI-IO, Close-to-open). A step therefore costs
    O(nranks · log S) reach queries, where S is the number of a rank's
    syncs that match the step's predicate. No shipped model has more than
    one [hb] step searched over every rank, so every check costs that
    much at most. A reflexive [hb] step is allowed, so one
    [MPI_File_sync] can serve as both syncs of the MPI-IO chain. *)

type sync_index
(** The trace's sync-capable operations (opens, closes, syncs) on each
    rank, in program order — the pool every MSC instantiation draws
    [S1..Sk] from. Immutable, so one index serves every model. *)

val build_index : Estore.t -> sync_index
(** One pass over each rank's ops; build once per trace and share across
    models and conflict pairs (as {!Pipeline.prepare} does). *)

val sync_op_count : sync_index -> int
(** Total indexed sync operations (a workload-size statistic). *)

val properly_synchronized :
  Model.t -> Reach.t -> sync_index -> x:int -> y:int -> bool
(** [x] and [y] are op indices into the index's store; both must be data
    operations on the same file ([Invalid_argument] otherwise).

    Apply it to its first three arguments once and reuse the result for
    every pair, as {!Verify.run} does. That closure filters each rank's
    syncs with a predicate's [sp_matches] once per file it meets and
    caches the result, so later checks do not allocate. The filter runs
    over all of a rank's syncs, not only those on the conflicting file,
    because a {!Model.opaque_pred} may match syncs of other files. *)
