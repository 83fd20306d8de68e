(** Verification (workflow step 4, Def. 6-8) with the runtime pruning of
    Fig. 3.

    A conflict pair (X, Y) is a data race iff neither [X -ps-> Y] nor
    [Y -ps-> X]. Verification walks the conflict groups; for a group
    (X, Y1..Yn with the Ys in program order on one peer rank) the four
    pruning rules each replace n pair checks with one:

    + [X -ps-> Y1]  ⟹  [X -ps-> Yi] for all i  (no race in the group);
    + [Yn -ps-> X]  ⟹  [Yi -ps-> X] for all i  (no race);
    + ¬[X -ps-> Yn] ⟹  ¬[X -ps-> Yi] for all i (skip that direction);
    + ¬[Y1 -ps-> X] ⟹  ¬[Yi -ps-> X] for all i (skip that direction).

    Rules 1 and 3 are sound as stated: they vary Y only as the {e target}
    of [ps], and an MSC's last edge composes with program order on the
    target side whatever X's kind. Rules 2 and 4 vary Y as the {e source},
    and Def. 6 gives read and write sources different predicates (plain
    happens-before vs. a full MSC construct) — [Yi -ps-> X] is monotone in
    program order only among Ys of one access kind. The implementation
    therefore applies rules 2 and 4 with per-kind boundary ops (the last,
    respectively first, conflicting read and write on the peer rank); the
    differential fuzz oracle caught the unsplit variant reporting false
    races on mixed read/write groups. Groups no rule decides fall back to
    pairwise checks, with rules 3/4 still suppressing whole directions. *)

type confidence =
  | Definite  (** both ops decoded cleanly from an intact trace region *)
  | Under_partial_order
      (** the verdict involves a rank implicated by an unmatched MPI call
          (partial matching): the trace decoded cleanly, but the unmatched
          call could have carried the happens-before edge that orders the
          pair — "racy modulo unmatched calls" *)
  | Under_degradation
      (** the verdict involves an op (or rank) affected by trace
          degradation: the race is real on the salvaged subset, but lost
          records could have carried the synchronization that orders it *)

type race = { rx : int; ry : int; confidence : confidence }
(** Op indices with [rx < ry]. *)

type stats = {
  groups : int;
  pairs : int;  (** distinct unordered conflict pairs *)
  ps_checks : int;  (** properly-synchronized evaluations performed *)
  fast_groups : int;  (** groups fully decided by rule 1 or 2 *)
  rule_hits : int array;
      (** how often each of Fig. 3's four scenarios fired, indexed 0-3:
          rule 1 (X ps first Y), rule 2 (last Y ps X), rule 3 (X reaches no
          Y), rule 4 (no Y reaches X) *)
}

val run :
  ?pruning:bool ->
  ?degraded:(int -> bool) ->
  ?partial:(int -> bool) ->
  ?budget:Vio_util.Budget.t ->
  Model.t ->
  Reach.t ->
  Msc.sync_index ->
  Estore.t ->
  Conflict.group list ->
  race list * stats
(** Races sorted by (rx, ry). [pruning] defaults to [true]; disabling it
    checks every pair in both directions (the ablation baseline).
    [degraded] (default: always false) says whether the op with a given
    index sits in a degraded region of the trace; races touching one are
    tagged {!Under_degradation}. [partial] (default: always false) says
    whether the op belongs to a rank implicated by an unmatched MPI call;
    races touching one (and no degraded op) are tagged
    {!Under_partial_order}. [budget], when given, is charged one step per
    properly-synchronized evaluation and the stage aborts with
    {!Vio_util.Budget.Exhausted} when it runs out.

    Apart from the races it returns, the bookkeeping allocates no heap
    block per pair. The memo of ordered-pair verdicts is one
    open-addressing [int array]: a slot holds
    [(a * nops + b) lsl 1 lor verdict] (8 bytes), or [-1] when empty. It
    starts at 256 slots and doubles when more than half are full, so
    each memoized check takes 16-32 bytes of live table. Racy pairs are
    appended to a {!Vio_util.Intbuf.t} as [min * nops + max] (8 bytes a
    note; each racy pair is noted from both of its mirrored groups),
    which {!Vio_util.Intsort.sort} sorts once, without a comparison
    closure, before it is deduplicated into the race list.
    Keys are below [nops * nops] and [key lsl 1] must fit a 63-bit int,
    so [nops], the store's op count, must be below 2^30: [run] raises
    [Invalid_argument] otherwise. *)
