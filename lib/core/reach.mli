(** Happens-before queries — the five interchangeable engines (the four
    of §IV-D plus an interval index for high rank counts).

    - {!Vector_clock}: topologically propagate per-rank clocks once
      (O(V+E)), then answer queries in O(1).
    - {!Bfs_memo}: per-query graph reachability (BFS), memoizing the full
      reachable set of each queried source (the NetworkX-style approach).
    - {!Transitive_closure}: precompute every node's reachable set as a
      bitset in reverse topological order; O(1) queries, O(V²) bits of
      memory — only sensible for smaller graphs.
    - {!On_the_fly}: no precomputation at all; each query is a forward
      search pruned by the global logical timestamps (edges never go
      backwards in time), mirroring the paper's algorithm that matches its
      way forward through the trace at verification time.
    - {!Interval_index}: per-rank suffix intervals over each rank
      chain's topological (= program) order, built in one reverse
      topological sweep — the backward dual of {!Vector_clock}. A node's
      reachable set within a rank chain is always a suffix, so one
      integer per (node, rank) answers same-rank queries by position
      comparison and cross-rank queries by a single array lookup, the
      propagation having already carried labels across the MPI match
      and collective join edges. Built for high rank counts.

    All five implement the same relation — [reaches t a b] iff a path from
    [a] to [b] exists (reflexively: [reaches t a a = true]) — and the test
    suite checks them against each other. Queries take *record* node ids
    (synthetic collective join nodes are internal). *)

type engine =
  | Vector_clock
  | Bfs_memo
  | Transitive_closure
  | On_the_fly
  | Interval_index

val engine_name : engine -> string
(** Display name: ["vector-clock"], ["graph-reachability"],
    ["transitive-closure"], ["on-the-fly"], ["interval-index"]. *)

val all_engines : engine list
(** The five engines in the order above (bench/table order). *)

val legacy_engines : engine list
(** The four pre-PR8 engines (everything but {!Interval_index}) — the
    set the [golden_pr5.digest] gate was recorded over. The gate iterates
    this list so its line counts stay pinned, and asserts separately that
    {!Interval_index} verdicts are byte-identical to {!Vector_clock}'s. *)

type t
(** An engine instance bound to one graph, holding whatever the engine
    precomputes plus its query/memo counters. Not domain-safe: each
    domain builds its own instance over the shared immutable graph. *)

val create : engine -> Hb_graph.t -> t
(** Runs the engine's precomputation ({!Vector_clock} clock propagation,
    {!Transitive_closure} bitsets, {!Interval_index} interval labels;
    {!Bfs_memo} and {!On_the_fly} are lazy). *)

val engine : t -> engine

val graph : t -> Hb_graph.t

val reaches : t -> int -> int -> bool
(** [reaches t a b]: does [a] happen before (or equal) [b]? Both must be
    record nodes. *)

val concurrent : t -> int -> int -> bool
(** Neither reaches the other. *)

val query_count : t -> int
(** Number of [reaches] queries served (for the pruning ablation and
    perfbench's [reach.queries]). *)

val memo_stats : t -> int * int
(** [(hits, misses)] of the {!Bfs_memo} engine's per-source reachable-set
    cache; [(0, 0)] for every other engine. A miss pays one full BFS, a
    hit is a bitset lookup. *)

val recommend : nranks:int -> graph_nodes:int -> conflict_pairs:int -> engine
(** The dynamic selection heuristic the paper sketches as future work:
    with no conflicts to check, skip all precomputation ({!On_the_fly});
    at 64+ ranks, {!Interval_index}; for small graphs
    queried heavily, precompute everything ({!Transitive_closure});
    otherwise {!Vector_clock}. *)
