module B = Vio_util.Bitset

type engine =
  | Vector_clock
  | Bfs_memo
  | Transitive_closure
  | On_the_fly
  | Interval_index

let engine_name = function
  | Vector_clock -> "vector-clock"
  | Bfs_memo -> "graph-reachability"
  | Transitive_closure -> "transitive-closure"
  | On_the_fly -> "on-the-fly"
  | Interval_index -> "interval-index"

let all_engines =
  [ Vector_clock; Bfs_memo; Transitive_closure; On_the_fly; Interval_index ]

let legacy_engines = [ Vector_clock; Bfs_memo; Transitive_closure; On_the_fly ]

type state =
  | Vc of int array array  (* node -> per-rank clock *)
  | Memo of (int, B.t) Hashtbl.t
  | Closure of B.t array  (* node -> reachable set, including itself *)
  | Fly
  | Interval of int array array  (* node -> per-rank interval start *)

type t = {
  eng : engine;
  g : Hb_graph.t;
  state : state;
  mutable queries : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let engine t = t.eng

let graph t = t.g

let query_count t = t.queries

let memo_stats t = (t.memo_hits, t.memo_misses)

(* ---------------------------------------------------------------- *)
(* Construction                                                       *)
(* ---------------------------------------------------------------- *)

let build_vc g =
  let n = Hb_graph.size g in
  let nranks = Hb_graph.nranks g in
  let clocks = Array.init n (fun _ -> Array.make nranks 0) in
  Array.iter
    (fun v ->
      let c = clocks.(v) in
      List.iter
        (fun p ->
          let cp = clocks.(p) in
          for r = 0 to nranks - 1 do
            if cp.(r) > c.(r) then c.(r) <- cp.(r)
          done)
        (Hb_graph.preds g v);
      let rank = Hb_graph.node_rank g v in
      if rank >= 0 then begin
        let own = Hb_graph.rank_pos g v + 1 in
        if own > c.(rank) then c.(rank) <- own
      end)
    (Hb_graph.topo_order g);
  Vc clocks

let build_closure g =
  let n = Hb_graph.size g in
  let sets = Array.init n (fun _ -> B.create n) in
  let topo = Hb_graph.topo_order g in
  (* Reverse topological order: successors' sets are already complete. *)
  for k = n - 1 downto 0 do
    let v = topo.(k) in
    B.set sets.(v) v;
    List.iter
      (fun s -> B.union_into ~dst:sets.(v) ~src:sets.(s))
      (Hb_graph.succs g v)
  done;
  Closure sets

(* Interval labels over each rank's program-order chain, whose chain
   position IS its topological order. For every node [v] and rank [s],
   [lo.(v).(s)] is the start of the suffix interval
   [lo.(v).(s), chain_len_s) of rank-s positions reachable from [v] —
   the reachable set within a totally ordered chain is always a suffix,
   so one integer captures it exactly. Built in a single reverse
   topological sweep: a node inherits the componentwise minimum of its
   successors' labels, then caps its own rank's entry at its own chain
   position. Propagation leaves a rank's chain only along MPI match and
   collective join edges.

   Same-rank queries degenerate to a chain-position comparison;
   cross-rank queries are one array lookup plus the same comparison —
   O(1) either way. Unlike the vector-clock engine (its forward dual),
   the sweep also labels synthetic join nodes, so boundary-node sources
   cost nothing extra. *)
let build_intervals g =
  let n = Hb_graph.size g in
  let nranks = Hb_graph.nranks g in
  let lo = Array.init n (fun _ -> Array.make nranks max_int) in
  let topo = Hb_graph.topo_order g in
  (* Reverse topological order: successors' labels are already final. *)
  for k = n - 1 downto 0 do
    let v = topo.(k) in
    let lv = lo.(v) in
    List.iter
      (fun s ->
        let ls = lo.(s) in
        for r = 0 to nranks - 1 do
          if ls.(r) < lv.(r) then lv.(r) <- ls.(r)
        done)
      (Hb_graph.succs g v);
    let rank = Hb_graph.node_rank g v in
    if rank >= 0 then begin
      let p = Hb_graph.rank_pos g v in
      if p < lv.(rank) then lv.(rank) <- p
    end
  done;
  Interval lo

let create eng g =
  let state =
    match eng with
    | Vector_clock -> build_vc g
    | Bfs_memo -> Memo (Hashtbl.create 64)
    | Transitive_closure -> build_closure g
    | On_the_fly -> Fly
    | Interval_index -> build_intervals g
  in
  { eng; g; state; queries = 0; memo_hits = 0; memo_misses = 0 }

(* ---------------------------------------------------------------- *)
(* Queries                                                            *)
(* ---------------------------------------------------------------- *)

let bfs_set g a =
  let n = Hb_graph.size g in
  let seen = B.create n in
  let q = Queue.create () in
  Queue.add a q;
  B.set seen a;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun s ->
        if not (B.mem seen s) then begin
          B.set seen s;
          Queue.add s q
        end)
      (Hb_graph.succs g v)
  done;
  seen

(* Targeted search with early exit, used by the no-precomputation engine. *)
let dfs_reaches g a b =
  let n = Hb_graph.size g in
  let seen = B.create n in
  let rec go v =
    v = b
    || begin
         B.set seen v;
         List.exists (fun s -> (not (B.mem seen s)) && go s) (Hb_graph.succs g v)
       end
  in
  go a

let reaches t a b =
  t.queries <- t.queries + 1;
  if a = b then true
  else
    match t.state with
    | Vc clocks ->
      let rank = Hb_graph.node_rank t.g a in
      if rank < 0 then invalid_arg "Reach.reaches: synthetic source";
      clocks.(b).(rank) >= Hb_graph.rank_pos t.g a + 1
    | Memo cache ->
      let set =
        match Hashtbl.find_opt cache a with
        | Some s ->
          t.memo_hits <- t.memo_hits + 1;
          s
        | None ->
          t.memo_misses <- t.memo_misses + 1;
          let s = bfs_set t.g a in
          Hashtbl.replace cache a s;
          s
      in
      B.mem set b
    | Closure sets -> B.mem sets.(a) b
    | Fly -> dfs_reaches t.g a b
    | Interval lo ->
      let rank = Hb_graph.node_rank t.g b in
      if rank < 0 then invalid_arg "Reach.reaches: synthetic target";
      lo.(a).(rank) <= Hb_graph.rank_pos t.g b

let concurrent t a b = (not (reaches t a b)) && not (reaches t b a)

let recommend ~nranks ~graph_nodes ~conflict_pairs =
  if conflict_pairs = 0 then On_the_fly
  else if nranks >= 64 then
    (* High rank counts are what the interval index is for: per-rank
       suffix intervals keep queries O(1) without the
       synthetic-source restriction the vector-clock engine carries. *)
    Interval_index
  else if graph_nodes <= 4096 && conflict_pairs > graph_nodes then
    Transitive_closure
  else Vector_clock
