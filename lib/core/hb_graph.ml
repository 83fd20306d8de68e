module E = Estore

type t = {
  d : E.t;
  n_real : int;
  n_total : int;
  succs_arr : int list array;
  preds_arr : int list array;
  pos : int array;
  ranks : int array;
  topo : int array;
  tstamps : int array;
  edges : int;
}

let size t = t.n_total

let real_nodes t = t.n_real

let edge_count t = t.edges

let succs t v = t.succs_arr.(v)

let preds t v = t.preds_arr.(v)

let topo_order t = t.topo

let node_rank t v = t.ranks.(v)

let rank_pos t v = t.pos.(v)

let rank_chain t r = E.rank_chain t.d r

let nranks t = E.nranks t.d

let node_tstart t v = t.tstamps.(v)

(* Everything up to the acyclicity check: node numbering and the full
   edge set. Shared between strict [build] (which raises on a cycle) and
   [build_partial] (which locates the cycles and retries without the
   events that caused them). *)
type proto = {
  a_n_real : int;
  a_n_total : int;
  a_succs : int list array;
  a_preds : int list array;
  a_pos : int array;
  a_ranks : int array;
  a_edges : int;
  a_colls : (int * int option) list list;
}

let assemble (d : E.t) (m : Match_mpi.result) =
  let n_real = E.length d in
  let completed_colls =
    List.filter_map
      (function
        | Match_mpi.Collective { parts; completed = true } -> Some parts
        | Match_mpi.Collective { completed = false; _ } | Match_mpi.P2p _ ->
          None)
      m.Match_mpi.events
  in
  let n_total = n_real + List.length completed_colls in
  let succs_arr = Array.make n_total [] in
  let preds_arr = Array.make n_total [] in
  let edges = ref 0 in
  let add_edge a b =
    succs_arr.(a) <- b :: succs_arr.(a);
    preds_arr.(b) <- a :: preds_arr.(b);
    incr edges
  in
  (* Node -> (rank, position) for real nodes. *)
  let pos = Array.make n_total (-1) in
  let ranks = Array.make n_total (-1) in
  for rank = 0 to E.nranks d - 1 do
    Array.iteri
      (fun p idx ->
        pos.(idx) <- p;
        ranks.(idx) <- rank)
      (E.rank_chain d rank)
  done;
  (* Program order chains. *)
  for rank = 0 to E.nranks d - 1 do
    let chain = E.rank_chain d rank in
    for k = 0 to Array.length chain - 2 do
      add_edge chain.(k) chain.(k + 1)
    done
  done;
  (* Point-to-point edges. *)
  List.iter
    (function
      | Match_mpi.P2p { send; completion } -> add_edge send completion
      | Match_mpi.Collective _ -> ())
    m.Match_mpi.events;
  (* Collective join nodes. For participant c, the subtree of c is the
     contiguous run of records with tstart < c.tend (the global clock makes
     nesting contiguous per rank). *)
  let subtree_end c =
    let rank = ranks.(c) in
    let chain = E.rank_chain d rank in
    let tend = E.tend d c in
    let rec go p =
      if
        p + 1 < Array.length chain
        && E.tstart d chain.(p + 1) < tend
      then go (p + 1)
      else p
    in
    go pos.(c)
  in
  List.iteri
    (fun k parts ->
      let join = n_real + k in
      List.iter
        (fun (init, completion) ->
          (* Data is contributed when the collective is initiated, so the
             in-edge leaves the initiator's subtree; the results are only
             available once the request completes, so the out-edge enters
             after the completing call (the initiator itself for blocking
             collectives). *)
          let rank = ranks.(init) in
          let chain = E.rank_chain d rank in
          add_edge chain.(subtree_end init) join;
          match completion with
          | Some c ->
            let last = subtree_end c in
            if last + 1 < Array.length chain then add_edge join chain.(last + 1)
          | None -> ())
        parts)
    completed_colls;
  {
    a_n_real = n_real;
    a_n_total = n_total;
    a_succs = succs_arr;
    a_preds = preds_arr;
    a_pos = pos;
    a_ranks = ranks;
    a_edges = !edges;
    a_colls = completed_colls;
  }

(* Kahn's algorithm; [None] when the edge set has a cycle. *)
let topo_of a =
  let n_total = a.a_n_total in
  let indeg = Array.make n_total 0 in
  Array.iteri
    (fun _ l -> List.iter (fun b -> indeg.(b) <- indeg.(b) + 1) l)
    a.a_succs;
  let queue = Queue.create () in
  Array.iteri (fun v dg -> if dg = 0 then Queue.add v queue) indeg;
  let topo = Array.make n_total (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    topo.(!filled) <- v;
    incr filled;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      a.a_succs.(v)
  done;
  if !filled <> n_total then None else Some topo

let graph_of (d : E.t) a topo =
  let n_real = a.a_n_real in
  let tstamps = Array.make a.a_n_total 0 in
  for v = 0 to n_real - 1 do
    tstamps.(v) <- E.tstart d v
  done;
  List.iteri
    (fun k parts ->
      tstamps.(n_real + k) <-
        List.fold_left
          (fun acc (init, _) -> max acc (E.tend d init))
          0 parts)
    a.a_colls;
  {
    d;
    n_real;
    n_total = a.a_n_total;
    succs_arr = a.a_succs;
    preds_arr = a.a_preds;
    pos = a.a_pos;
    ranks = a.a_ranks;
    topo;
    tstamps;
    edges = a.a_edges;
  }

let build (d : E.t) (m : Match_mpi.result) =
  let a = assemble d m in
  match topo_of a with
  | Some topo -> graph_of d a topo
  | None -> raise (E.Malformed "happens-before graph contains a cycle")

(* Strongly connected components (iterative Kosaraju). Returns the
   component id of every node; only components of size > 1 can carry a
   cycle (the edge set has no self loops). *)
let scc_of a =
  let n = a.a_n_total in
  let visited = Array.make n false in
  let order = ref [] in
  for root = 0 to n - 1 do
    if not visited.(root) then begin
      let stack = ref [ (root, a.a_succs.(root)) ] in
      visited.(root) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, next) :: rest -> (
          match next with
          | [] ->
            order := v :: !order;
            stack := rest
          | w :: next' ->
            stack := (v, next') :: rest;
            if not visited.(w) then begin
              visited.(w) <- true;
              stack := (w, a.a_succs.(w)) :: !stack
            end)
      done
    end
  done;
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  List.iter
    (fun root ->
      if comp.(root) = -1 then begin
        let id = !ncomp in
        incr ncomp;
        let stack = ref [ root ] in
        comp.(root) <- id;
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | v :: rest ->
            stack := rest;
            List.iter
              (fun w ->
                if comp.(w) = -1 then begin
                  comp.(w) <- id;
                  stack := w :: !stack
                end)
              a.a_preds.(v)
        done
      end)
    !order;
  let sizes = Array.make !ncomp 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  (comp, sizes)

let build_partial (d : E.t) (m : Match_mpi.result) =
  let a = assemble d m in
  match topo_of a with
  | Some topo -> (graph_of d a topo, [])
  | None ->
    (* Every cycle runs through at least one MPI event edge (program
       order alone is acyclic), and every edge on a cycle connects two
       nodes of one strongly connected component. Dropping exactly the
       events with an intra-component edge therefore removes every
       cycle in one pass while keeping all consistent synchronization. *)
    let comp, sizes = scc_of a in
    let in_cycle v = sizes.(comp.(v)) > 1 in
    let join = ref 0 in
    let dropped, kept =
      List.fold_left
        (fun (dropped, kept) ev ->
          match ev with
          | Match_mpi.P2p { send; completion } ->
            if comp.(send) = comp.(completion) && in_cycle send then
              (ev :: dropped, kept)
            else (dropped, ev :: kept)
          | Match_mpi.Collective { completed = true; _ } ->
            let j = a.a_n_real + !join in
            incr join;
            if in_cycle j then (ev :: dropped, kept)
            else (dropped, ev :: kept)
          | Match_mpi.Collective { completed = false; _ } ->
            (dropped, ev :: kept))
        ([], []) m.Match_mpi.events
    in
    let kept = List.rev kept and dropped = List.rev dropped in
    (match build d { m with Match_mpi.events = kept } with
    | g -> (g, dropped)
    | exception E.Malformed _ ->
      (* Cannot happen by the argument above; keep a hard floor anyway. *)
      (build d { m with Match_mpi.events = [] }, m.Match_mpi.events))

let to_dot ?(highlight = []) t =
  let buf = Buffer.create 1024 in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  Buffer.add_string buf "digraph happens_before {\n";
  Buffer.add_string buf "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  for rank = 0 to nranks t - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  subgraph cluster_rank%d {\n    label=\"rank %d\";\n"
         rank rank);
    Array.iter
      (fun v ->
        let fill = if List.mem v highlight then ", style=filled, fillcolor=salmon" else "" in
        Buffer.add_string buf
          (Printf.sprintf "    n%d [label=\"#%d %s\"%s];\n" v v
             (escape (E.func t.d v)) fill))
      (E.rank_chain t.d rank);
    Buffer.add_string buf "  }\n"
  done;
  for v = t.n_real to t.n_total - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"join\", shape=diamond];\n" v)
  done;
  for v = 0 to t.n_total - 1 do
    List.iter
      (fun s -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" v s))
      t.succs_arr.(v)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
