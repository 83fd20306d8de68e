(* Tests for the five happens-before engines: correctness against a
   brute-force transitive closure on randomly generated (deadlock-free)
   simulator programs, plus engine-specific behaviours. The engine list
   comes from [Reach.all_engines], so the interval-index engine rides
   through every agreement check; the cross-shard suite below
   additionally drives it on a 64-rank graph at campaign scale. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module V = Verifyio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graph_of ~nranks program =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx -> program ctx fs);
  let d = V.Estore.of_records ~nranks (Recorder.Trace.records trace) in
  let m = V.Match_mpi.run d in
  V.Hb_graph.build d m

(* A deadlock-free random program: a deterministic PRNG drives a mix of
   I/O, barriers, fsyncs, and ring-shaped non-blocking exchanges. *)
let random_program seed ~rounds (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let nranks = M.comm_size ctx comm in
  let rank = ctx.E.rank in
  let fd = F.openf fs ~rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/rand" in
  let state = ref (seed * 7919) in
  let next () =
    (* Same stream on every rank so collective decisions agree. *)
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for _ = 1 to rounds do
    match next () mod 6 with
    | 0 -> ignore (F.pwrite fs ~rank fd ~off:((next () + rank) mod 32) (Bytes.make 3 'w'))
    | 1 -> ignore (F.pread fs ~rank fd ~off:((next () + rank) mod 32) ~len:3)
    | 2 -> M.barrier ctx comm
    | 3 -> F.fsync fs ~rank fd
    | 4 ->
      (* Ring exchange: every rank sends to the next and receives from the
         previous — always matched, never deadlocks. *)
      let nxt = (rank + 1) mod nranks and prv = (rank + nranks - 1) mod nranks in
      let r = M.irecv ctx ~src:prv ~tag:7 ~comm in
      M.send ctx ~dst:nxt ~tag:7 ~comm (Bytes.of_string "ring");
      ignore (M.wait ctx r)
    | _ -> ignore (M.allreduce ctx ~op:M.Sum ~comm [| rank |])
  done;
  F.close fs ~rank fd

let brute_force_closure g =
  let n = V.Hb_graph.size g in
  let reach = Array.make_matrix n n false in
  let topo = V.Hb_graph.topo_order g in
  for k = n - 1 downto 0 do
    let v = topo.(k) in
    reach.(v).(v) <- true;
    List.iter
      (fun s ->
        for w = 0 to n - 1 do
          if reach.(s).(w) then reach.(v).(w) <- true
        done)
      (V.Hb_graph.succs g v)
  done;
  reach

let test_engines_match_brute_force () =
  for seed = 1 to 6 do
    let g = graph_of ~nranks:3 (random_program seed ~rounds:8) in
    let expected = brute_force_closure g in
    let engines = List.map (fun e -> V.Reach.create e g) V.Reach.all_engines in
    let n_real = V.Hb_graph.real_nodes g in
    for a = 0 to n_real - 1 do
      for b = 0 to n_real - 1 do
        List.iter
          (fun r ->
            check_bool
              (Printf.sprintf "seed %d: %s agrees on (%d,%d)" seed
                 (V.Reach.engine_name (V.Reach.engine r))
                 a b)
              expected.(a).(b)
              (V.Reach.reaches r a b))
          engines
      done
    done
  done

let test_reflexive () =
  let g = graph_of ~nranks:2 (random_program 42 ~rounds:4) in
  List.iter
    (fun e ->
      let r = V.Reach.create e g in
      check_bool (V.Reach.engine_name e ^ " reflexive") true
        (V.Reach.reaches r 0 0))
    V.Reach.all_engines

let test_po_implies_reach () =
  let g = graph_of ~nranks:2 (random_program 7 ~rounds:6) in
  List.iter
    (fun e ->
      let r = V.Reach.create e g in
      for rank = 0 to 1 do
        let chain = V.Hb_graph.rank_chain g rank in
        for k = 0 to Array.length chain - 2 do
          check_bool "program order is happens-before" true
            (V.Reach.reaches r chain.(k) chain.(k + 1))
        done
      done)
    V.Reach.all_engines

let test_concurrent_helper () =
  let g =
    graph_of ~nranks:2 (fun ctx fs ->
        let rank = ctx.E.rank in
        let fd = F.openf fs ~rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/c" in
        ignore (F.pwrite fs ~rank fd ~off:0 (Bytes.make 1 'x'));
        F.close fs ~rank fd)
  in
  let r = V.Reach.create V.Reach.Vector_clock g in
  (* Node 0 is rank 0's open; rank 1's chain starts at its own open. *)
  let a = (V.Hb_graph.rank_chain g 0).(1) in
  let b = (V.Hb_graph.rank_chain g 1).(1) in
  check_bool "unordered writes are concurrent" true (V.Reach.concurrent r a b);
  check_bool "po-ordered ops are not concurrent" false
    (V.Reach.concurrent r (V.Hb_graph.rank_chain g 0).(0) a)

let test_query_count () =
  let g = graph_of ~nranks:2 (random_program 3 ~rounds:3) in
  let r = V.Reach.create V.Reach.Vector_clock g in
  check_int "starts at zero" 0 (V.Reach.query_count r);
  ignore (V.Reach.reaches r 0 1);
  ignore (V.Reach.reaches r 1 0);
  check_int "counts queries" 2 (V.Reach.query_count r)

let test_memo_engine_caches () =
  (* The memoized-BFS engine must answer repeated queries from one source
     consistently (and exercise its cache path). *)
  let g = graph_of ~nranks:3 (random_program 11 ~rounds:6) in
  let r = V.Reach.create V.Reach.Bfs_memo g in
  let n = V.Hb_graph.real_nodes g in
  let first = Array.init n (fun b -> V.Reach.reaches r 0 b) in
  let second = Array.init n (fun b -> V.Reach.reaches r 0 b) in
  check_bool "cache consistent" true (first = second)

let prop_engines_pairwise_equal =
  QCheck2.Test.make ~name:"random programs: engines pairwise equal" ~count:12
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, nranks) ->
      let g = graph_of ~nranks (random_program seed ~rounds:6) in
      let rs = List.map (fun e -> V.Reach.create e g) V.Reach.all_engines in
      let n = V.Hb_graph.real_nodes g in
      (* Sample a subset of pairs for speed. *)
      let ok = ref true in
      let step = max 1 (n / 12) in
      let a = ref 0 in
      while !a < n do
        let b = ref 0 in
        while !b < n do
          let answers = List.map (fun r -> V.Reach.reaches r !a !b) rs in
          (match answers with
          | x :: rest -> if not (List.for_all (( = ) x) rest) then ok := false
          | [] -> ());
          b := !b + step
        done;
        a := !a + step
      done;
      !ok)

(* Stronger agreement property for the differential-fuzzing PR: engines
   must agree on [concurrent] as well as [reaches], the diagonal must be
   reflexive (hence never concurrent), and programs that open with a
   collective exercise the synthetic-source corner — the first real op of
   every rank then hangs off a synthetic collective node, where
   vector-clock positions are easiest to get wrong. *)
let prop_engines_agree_reaches_and_concurrent =
  QCheck2.Test.make
    ~name:"random programs: engines agree on reaches and concurrent"
    ~count:10
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, nranks) ->
      let g =
        graph_of ~nranks (fun ctx fs ->
            (* Barrier before any file op: rank chains start at a node
               whose only hb predecessor is a synthetic collective. *)
            Mpisim.Mpi.barrier ctx (Mpisim.Mpi.comm_world ctx);
            random_program seed ~rounds:5 ctx fs)
      in
      let rs = List.map (fun e -> V.Reach.create e g) V.Reach.all_engines in
      let n = V.Hb_graph.real_nodes g in
      let agree a b =
        match List.map (fun r -> V.Reach.reaches r a b) rs with
        | [] -> true
        | x :: rest -> List.for_all (( = ) x) rest
      and agree_conc a b =
        match List.map (fun r -> V.Reach.concurrent r a b) rs with
        | [] -> true
        | x :: rest -> List.for_all (( = ) x) rest
      in
      let ok = ref true in
      for v = 0 to n - 1 do
        (* Self-reachability corner: reflexive on every engine, so never
           self-concurrent. *)
        List.iter
          (fun r ->
            if not (V.Reach.reaches r v v) then ok := false;
            if V.Reach.concurrent r v v then ok := false)
          rs
      done;
      let step = max 1 (n / 10) in
      let a = ref 0 in
      while !a < n do
        let b = ref 0 in
        while !b < n do
          if not (agree !a !b && agree_conc !a !b) then ok := false;
          b := !b + step
        done;
        a := !a + step
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Cross-rank queries: the interval-index engine carries per-rank labels
   across MPI match and collective join edges, so its hardest inputs are
   pairs on different ranks whose only happens-before path crosses a
   collective join. Build a wide (64-rank) generated workload and check
   interval-index against vector-clock and memoized BFS on exactly those
   pairs. *)

let wide_graph_of ~nranks seed =
  let p = Viogen.Workload.generate ~nranks ~seed () in
  let records = Viogen.Workload.run p in
  let d = V.Estore.of_records ~nranks:p.Viogen.Workload.nranks records in
  V.Hb_graph.build d (V.Match_mpi.run d)

let test_interval_cross_shard () =
  let g = wide_graph_of ~nranks:64 2024 in
  let ii = V.Reach.create V.Reach.Interval_index g in
  let vc = V.Reach.create V.Reach.Vector_clock g in
  let bfs = V.Reach.create V.Reach.Bfs_memo g in
  let nranks = ref 0 in
  for v = 0 to V.Hb_graph.real_nodes g - 1 do
    nranks := max !nranks (V.Hb_graph.node_rank g v + 1)
  done;
  check_bool "workload is genuinely wide" true (!nranks >= 64);
  (* Sample chain positions on rank pairs far apart: any hb order between
     them must route through a collective join (no p2p spans 60 ranks in
     these workloads). *)
  let checked = ref 0 in
  for ra = 0 to !nranks - 1 do
    let rb = (ra + (!nranks / 2)) mod !nranks in
    let ca = V.Hb_graph.rank_chain g ra and cb = V.Hb_graph.rank_chain g rb in
    let pick c k = c.(k * (Array.length c - 1) / 3) in
    for ka = 0 to 3 do
      for kb = 0 to 3 do
        let a = pick ca ka and b = pick cb kb in
        let expected = V.Reach.reaches vc a b in
        check_bool "interval-index = vector-clock across ranks" true
          (V.Reach.reaches ii a b = expected);
        check_bool "bfs = vector-clock across ranks" true
          (V.Reach.reaches bfs a b = expected);
        if expected then incr checked
      done
    done
  done;
  check_bool "some cross-rank pairs were actually ordered" true (!checked > 0)

let test_interval_synthetic_endpoints () =
  (* Synthetic collective joins are valid sources (the engine labels
     them) but not targets — the backward dual of vector-clock's
     synthetic-source restriction. *)
  let g = wide_graph_of ~nranks:8 5 in
  check_bool "graph has synthetic nodes" true
    (V.Hb_graph.size g > V.Hb_graph.real_nodes g);
  let ii = V.Reach.create V.Reach.Interval_index g in
  let bfs = V.Reach.create V.Reach.Bfs_memo g in
  let join = V.Hb_graph.real_nodes g in
  for b = 0 to V.Hb_graph.real_nodes g - 1 do
    check_bool "join-as-source agrees with bfs" true
      (V.Reach.reaches ii join b = V.Reach.reaches bfs join b)
  done;
  check_bool "join-as-target is rejected" true
    (try
       ignore (V.Reach.reaches ii 0 join);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "reach"
    [
      ( "correctness",
        [
          Alcotest.test_case "matches brute force" `Slow
            test_engines_match_brute_force;
          Alcotest.test_case "reflexive" `Quick test_reflexive;
          Alcotest.test_case "po implies reach" `Quick test_po_implies_reach;
          Alcotest.test_case "concurrent helper" `Quick test_concurrent_helper;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "query count" `Quick test_query_count;
          Alcotest.test_case "memo caching" `Quick test_memo_engine_caches;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_engines_pairwise_equal;
          QCheck_alcotest.to_alcotest prop_engines_agree_reaches_and_concurrent;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "interval-index across shards" `Quick
            test_interval_cross_shard;
          Alcotest.test_case "synthetic endpoints" `Quick
            test_interval_synthetic_endpoints;
        ] );
    ]
