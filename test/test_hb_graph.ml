(* Unit tests for happens-before graph construction: program-order chains,
   point-to-point edges, collective join-node semantics (subtree handling),
   topological ordering, and the structural invariants the engines rely
   on. Traces are produced by small simulator programs so node identities
   can be located by function name. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module V = Verifyio
module R = Recorder.Record

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let collect ~nranks program =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx -> program ctx fs);
  Recorder.Trace.records trace

let build ~nranks program =
  let d = V.Estore.of_records ~nranks (collect ~nranks program) in
  let m = V.Match_mpi.run d in
  (d, m, V.Hb_graph.build d m)

let find_node d ~rank ~func =
  let found = ref None in
  for i = 0 to V.Estore.length d - 1 do
    if V.Estore.rank d i = rank && V.Estore.func d i = func then
      if !found = None then found := Some i
  done;
  match !found with
  | Some idx -> idx
  | None -> Alcotest.fail (Printf.sprintf "no %s on rank %d" func rank)

let has_edge g a b = List.mem b (V.Hb_graph.succs g a)

(* ------------------------------------------------------------------ *)

let test_po_chain () =
  let d, _, g =
    build ~nranks:1 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/a" in
        ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.of_string "x"));
        F.close fs ~rank:0 fd)
  in
  let o = find_node d ~rank:0 ~func:"open" in
  let w = find_node d ~rank:0 ~func:"pwrite" in
  let c = find_node d ~rank:0 ~func:"close" in
  check_bool "open -> pwrite" true (has_edge g o w);
  check_bool "pwrite -> close" true (has_edge g w c);
  check_bool "no back edge" false (has_edge g c o);
  check_int "positions" 0 (V.Hb_graph.rank_pos g o);
  check_int "positions" 1 (V.Hb_graph.rank_pos g w);
  check_int "rank" 0 (V.Hb_graph.node_rank g w)

let test_p2p_edge () =
  let d, _, g =
    build ~nranks:2 (fun ctx _fs ->
        let comm = M.comm_world ctx in
        if ctx.E.rank = 0 then M.send ctx ~dst:1 ~tag:3 ~comm (Bytes.of_string "m")
        else ignore (M.recv ctx ~src:0 ~tag:3 ~comm))
  in
  let s = find_node d ~rank:0 ~func:"MPI_Send" in
  let r = find_node d ~rank:1 ~func:"MPI_Recv" in
  check_bool "send -> recv" true (has_edge g s r)

let test_irecv_edge_targets_wait () =
  let d, _, g =
    build ~nranks:2 (fun ctx _fs ->
        let comm = M.comm_world ctx in
        if ctx.E.rank = 0 then M.send ctx ~dst:1 ~tag:0 ~comm (Bytes.of_string "m")
        else begin
          let req = M.irecv ctx ~src:0 ~tag:0 ~comm in
          ignore (M.wait ctx req)
        end)
  in
  let s = find_node d ~rank:0 ~func:"MPI_Send" in
  let irecv = find_node d ~rank:1 ~func:"MPI_Irecv" in
  let wait = find_node d ~rank:1 ~func:"MPI_Wait" in
  check_bool "send -> wait (completion)" true (has_edge g s wait);
  check_bool "not send -> irecv" false (has_edge g s irecv)

let test_collective_join_node () =
  let d, m, g =
    build ~nranks:3 (fun ctx _fs ->
        let comm = M.comm_world ctx in
        M.barrier ctx comm)
  in
  check_int "one synthetic node" (V.Hb_graph.real_nodes g + 1) (V.Hb_graph.size g);
  check_int "one matched event" 1 (List.length m.V.Match_mpi.events);
  let join = V.Hb_graph.real_nodes g in
  check_int "synthetic has no rank" (-1) (V.Hb_graph.node_rank g join);
  for rank = 0 to 2 do
    let b = find_node d ~rank ~func:"MPI_Barrier" in
    check_bool "barrier -> join" true (has_edge g b join)
  done

let test_collective_subtree_edges () =
  (* A collective whose participants nest I/O (MPI_File_write_at_all):
     the join edge must leave from the LAST nested record, so the nested
     pwrite is ordered before other ranks' later operations. *)
  let d, _, g =
    build ~nranks:2 (fun ctx fs ->
        let comm = M.comm_world ctx in
        let f = Mpiio.File.open_ ctx ~comm ~fs
            ~amode:[ Mpiio.File.Create; Mpiio.File.Rdwr ] "/st"
        in
        Mpiio.File.write_at_all ctx f ~off:(ctx.E.rank * 4)
          (Bytes.make 4 'x');
        Mpiio.File.close ctx f)
  in
  let w0 = find_node d ~rank:0 ~func:"pwrite" in
  let close1 = find_node d ~rank:1 ~func:"MPI_File_close" in
  (* rank 0's nested pwrite must reach rank 1's close through the
     write_at_all join node. *)
  let reach = V.Reach.create V.Reach.Bfs_memo g in
  check_bool "nested pwrite hb later close on other rank" true
    (V.Reach.reaches reach w0 close1)

let test_topo_order_is_valid () =
  let _, _, g =
    build ~nranks:3 (fun ctx fs ->
        let comm = M.comm_world ctx in
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/t" in
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:(ctx.E.rank * 4) (Bytes.make 4 'a'));
        M.barrier ctx comm;
        ignore (M.allreduce ctx ~op:M.Sum ~comm [| 1 |]);
        F.close fs ~rank:ctx.E.rank fd)
  in
  let topo = V.Hb_graph.topo_order g in
  check_int "topo covers all nodes" (V.Hb_graph.size g) (Array.length topo);
  let position = Array.make (V.Hb_graph.size g) (-1) in
  Array.iteri (fun i v -> position.(v) <- i) topo;
  for v = 0 to V.Hb_graph.size g - 1 do
    List.iter
      (fun s ->
        check_bool "edges respect topo order" true (position.(v) < position.(s)))
      (V.Hb_graph.succs g v)
  done

let test_preds_mirror_succs () =
  let _, _, g =
    build ~nranks:2 (fun ctx _fs ->
        let comm = M.comm_world ctx in
        M.barrier ctx comm;
        if ctx.E.rank = 0 then M.send ctx ~dst:1 ~tag:0 ~comm (Bytes.of_string "z")
        else ignore (M.recv ctx ~src:0 ~tag:0 ~comm))
  in
  let edges_fwd = ref 0 and edges_bwd = ref 0 in
  for v = 0 to V.Hb_graph.size g - 1 do
    List.iter
      (fun s ->
        incr edges_fwd;
        check_bool "succ has matching pred" true
          (List.mem v (V.Hb_graph.preds g s)))
      (V.Hb_graph.succs g v);
    edges_bwd := !edges_bwd + List.length (V.Hb_graph.preds g v)
  done;
  check_int "edge counts agree" !edges_fwd !edges_bwd;
  check_int "edge_count accessor" !edges_fwd (V.Hb_graph.edge_count g)

let test_incomplete_collective_no_join () =
  (* A deadlocked barrier (subset) yields an incomplete event: no join
     node, no edges through it. *)
  let records =
    let trace = Recorder.Trace.create ~nranks:2 in
    let eng = E.create ~trace ~nranks:2 () in
    (try
       E.run eng (fun ctx ->
           let comm = M.comm_world ctx in
           if ctx.E.rank = 0 then M.barrier ctx comm)
     with E.Deadlock _ -> ());
    Recorder.Trace.records trace
  in
  let d = V.Estore.of_records ~nranks:2 records in
  let m = V.Match_mpi.run d in
  let g = V.Hb_graph.build d m in
  check_int "no synthetic node" (V.Hb_graph.real_nodes g) (V.Hb_graph.size g);
  check_bool "diagnosed" true (m.V.Match_mpi.unmatched <> [])

let () =
  Alcotest.run "hb-graph"
    [
      ( "structure",
        [
          Alcotest.test_case "po chain" `Quick test_po_chain;
          Alcotest.test_case "p2p edge" `Quick test_p2p_edge;
          Alcotest.test_case "irecv completion edge" `Quick
            test_irecv_edge_targets_wait;
          Alcotest.test_case "collective join" `Quick test_collective_join_node;
          Alcotest.test_case "collective subtree" `Quick
            test_collective_subtree_edges;
          Alcotest.test_case "incomplete collective" `Quick
            test_incomplete_collective_no_join;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "topological order" `Quick test_topo_order_is_valid;
          Alcotest.test_case "preds mirror succs" `Quick test_preds_mirror_succs;
        ] );
    ]
