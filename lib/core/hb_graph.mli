(** The happens-before graph (workflow step 3, second half).

    Nodes are the trace records (every record of every rank) plus one
    synthetic join node per matched collective event. Edges:

    - program order: consecutive records of a rank;
    - point-to-point: send record → receive-completion record;
    - collectives: for each participant record [c], an edge from the last
      record of [c]'s subtree (the call and everything it nested — so the
      I/O a collective performed internally is ordered too) to the join
      node, and from the join node to the first record after the subtree.
      This encodes barrier semantics: everything up to and including a
      rank's collective call happens-before everything any other rank does
      after its own matching call. Like the paper's matcher (and
      Recorder's), every matched collective is treated as synchronizing.

    The graph is a DAG; {!build} raises [Estore.Malformed] on a cycle (which
    would indicate a corrupted trace). *)

type t

val build : Estore.t -> Match_mpi.result -> t
(** Assemble the graph from a decoded trace and its MPI matching.
    Incomplete events (a participant never returned) contribute no
    synchronization edges — the conservative choice for aborted runs. *)

val build_partial : Estore.t -> Match_mpi.result -> t * Match_mpi.event list
(** Like {!build}, but never raises on a cycle: the events whose edges
    participate in a cycle (located via strongly connected components of
    the full edge set) are dropped and the graph is rebuilt from the rest.
    Returns the partial graph together with the dropped events — an empty
    list means the graph is the same one {!build} would produce. Dropping
    only removes happens-before edges, so verdicts over the partial graph
    are sound for race {e reporting} (a pair ordered in the partial graph
    may be racy in reality — callers must downgrade "properly
    synchronized" verdicts that involve a dropped participant). *)

val size : t -> int
(** Total node count (records + synthetic). *)

val real_nodes : t -> int
(** Record nodes only (node ids [0 .. real_nodes - 1]); ids at or above
    this are synthetic collective joins. *)

val edge_count : t -> int

val succs : t -> int -> int list
(** Direct happens-before successors of a node (synthetic ids included). *)

val preds : t -> int -> int list
(** Direct predecessors — the reverse of {!succs}. *)

val topo_order : t -> int array
(** All nodes in a topological order. *)

val node_rank : t -> int -> int
(** Owning rank, or [-1] for synthetic nodes. *)

val rank_pos : t -> int -> int
(** Position of a real node within its rank's program-order chain. *)

val rank_chain : t -> int -> int array
(** A rank's record nodes in program order. *)

val nranks : t -> int

val node_tstart : t -> int -> int
(** Entry timestamp of a node in the global logical clock; synthetic join
    nodes carry the max exit time of their participants. Diagnostic only —
    edges are not monotone in this stamp (a receive completion can enter
    before its matching send). *)

val to_dot : ?highlight:int list -> t -> string
(** Graphviz rendering of the graph: one subgraph per rank in program
    order, point-to-point and collective edges across them, synthetic join
    nodes as diamonds. Nodes in [highlight] (e.g. the two sides of a data
    race) are drawn filled. *)
