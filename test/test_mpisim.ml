(* Tests for the deterministic MPI simulator: scheduler, point-to-point
   (blocking, non-blocking, wildcards), collectives, communicator management,
   deadlock and mismatch detection, and trace emission. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module C = Mpisim.Comm

let run ?trace ~nranks program =
  let eng = E.create ?trace ~nranks () in
  E.run eng program;
  eng

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Scheduler basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_all_ranks_run () =
  let hits = Array.make 4 false in
  ignore (run ~nranks:4 (fun ctx -> hits.(ctx.E.rank) <- true));
  Array.iteri (fun r h -> check_bool (Printf.sprintf "rank %d ran" r) true h) hits

let test_single_shot () =
  let eng = E.create ~nranks:2 () in
  E.run eng (fun _ -> ());
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Engine.run: engine is single-shot") (fun () ->
      E.run eng (fun _ -> ()))

let test_rank_exception_propagates () =
  match run ~nranks:2 (fun ctx -> if ctx.E.rank = 1 then failwith "boom") with
  | exception Failure msg -> check_string "exn" "boom" msg
  | _ -> Alcotest.fail "expected exception"

(* ------------------------------------------------------------------ *)
(* Point-to-point                                                       *)
(* ------------------------------------------------------------------ *)

let test_send_recv () =
  let received = ref "" in
  ignore
    (run ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank = 0 then
           M.send ctx ~dst:1 ~tag:7 ~comm (Bytes.of_string "hello")
         else begin
           let data, st = M.recv ctx ~src:0 ~tag:7 ~comm in
           received := Bytes.to_string data;
           check_int "status source" 0 st.M.st_source;
           check_int "status tag" 7 st.M.st_tag
         end));
  check_string "payload" "hello" !received

let test_recv_blocks_until_send () =
  (* Rank 1 posts its receive; the matching send arrives later in the
     schedule, so the scheduler must suspend and resume rank 1. *)
  let got = ref "" in
  ignore
    (run ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank = 1 then begin
           let data, _ = M.recv ctx ~src:0 ~tag:3 ~comm in
           got := Bytes.to_string data
         end
         else begin
           (* A barrier cannot sit before the send here (it would deadlock);
              instead rank 0 exchanges a second message pair after sending so
              both fibers demonstrably suspend at least once. *)
           M.send ctx ~dst:1 ~tag:3 ~comm (Bytes.of_string "late")
         end));
  check_string "received" "late" !got

let test_wildcard_recv () =
  let sources = ref [] in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank > 0 then
           M.send ctx ~dst:0 ~tag:(10 + ctx.E.rank) ~comm
             (Bytes.of_string (string_of_int ctx.E.rank))
         else
           for _ = 1 to 2 do
             let _, st = M.recv ctx ~src:M.any_source ~tag:M.any_tag ~comm in
             sources := (st.M.st_source, st.M.st_tag) :: !sources
           done));
  let sorted = List.sort compare !sources in
  Alcotest.(check (list (pair int int)))
    "wildcards resolved" [ (1, 11); (2, 12) ] sorted

let test_message_ordering_same_channel () =
  (* Non-overtaking: two messages on the same (src, tag) arrive in order. *)
  let got = ref [] in
  ignore
    (run ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank = 0 then begin
           M.send ctx ~dst:1 ~tag:5 ~comm (Bytes.of_string "first");
           M.send ctx ~dst:1 ~tag:5 ~comm (Bytes.of_string "second")
         end
         else begin
           let a, _ = M.recv ctx ~src:0 ~tag:5 ~comm in
           let b, _ = M.recv ctx ~src:0 ~tag:5 ~comm in
           got := [ Bytes.to_string a; Bytes.to_string b ]
         end));
  Alcotest.(check (list string)) "fifo" [ "first"; "second" ] !got

let test_isend_irecv_wait () =
  let got = ref "" in
  ignore
    (run ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank = 0 then begin
           let r = M.isend ctx ~dst:1 ~tag:1 ~comm (Bytes.of_string "async") in
           let _ = M.wait ctx r in
           ()
         end
         else begin
           let r = M.irecv ctx ~src:0 ~tag:1 ~comm in
           let data, st = M.wait ctx r in
           got := Bytes.to_string data;
           check_int "src" 0 st.M.st_source
         end));
  check_string "async payload" "async" !got

let test_waitall () =
  let total = ref 0 in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank > 0 then
           M.send ctx ~dst:0 ~tag:ctx.E.rank ~comm
             (Bytes.of_string (String.make ctx.E.rank 'x'))
         else begin
           let r1 = M.irecv ctx ~src:1 ~tag:1 ~comm in
           let r2 = M.irecv ctx ~src:2 ~tag:2 ~comm in
           let results = M.waitall ctx [ r1; r2 ] in
           total :=
             List.fold_left (fun a (d, _) -> a + Bytes.length d) 0 results
         end));
  check_int "both received" 3 !total

let test_test_and_testsome () =
  let phases = ref [] in
  ignore
    (run ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank = 0 then begin
           (* Rank 0 is scheduled first, so its test runs before rank 1 has
              had a chance to send. *)
           let r = M.irecv ctx ~src:1 ~tag:9 ~comm in
           (match M.test ctx r with
           | None -> phases := "not-yet" :: !phases
           | Some _ -> phases := "early!" :: !phases);
           (* Let rank 1 run and send. *)
           M.barrier ctx comm;
           (match M.testsome ctx [ r ] with
           | [ (_, data, _) ] ->
             phases := ("got:" ^ Bytes.to_string data) :: !phases
           | _ -> phases := "missing" :: !phases)
         end
         else begin
           M.send ctx ~dst:0 ~tag:9 ~comm (Bytes.of_string "t");
           M.barrier ctx comm
         end));
  Alcotest.(check (list string)) "test then testsome" [ "got:t"; "not-yet" ]
    !phases

let test_deadlock_detection () =
  (* Both ranks receive and nobody sends. *)
  let raised = ref false in
  (try
     ignore
       (run ~nranks:2 (fun ctx ->
            let comm = M.comm_world ctx in
            ignore (M.recv ctx ~src:(1 - ctx.E.rank) ~tag:0 ~comm)))
   with E.Deadlock _ -> raised := true);
  check_bool "deadlock detected" true !raised

(* ------------------------------------------------------------------ *)
(* Collectives                                                          *)
(* ------------------------------------------------------------------ *)

let test_barrier_synchronizes () =
  let after = ref 0 and before_max = ref 0 in
  ignore
    (run ~nranks:4 (fun ctx ->
         let comm = M.comm_world ctx in
         incr before_max;
         M.barrier ctx comm;
         (* By barrier semantics all four increments happened. *)
         if ctx.E.rank = 0 then after := !before_max));
  check_int "all arrived before any left" 4 !after

let test_bcast () =
  let got = Array.make 3 "" in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         let mine =
           if ctx.E.rank = 1 then Bytes.of_string "root-data"
           else Bytes.create 0
         in
         let out = M.bcast ctx ~root:1 ~comm mine in
         got.(ctx.E.rank) <- Bytes.to_string out));
  Array.iteri
    (fun r s -> check_string (Printf.sprintf "rank %d" r) "root-data" s)
    got

let test_reduce_and_allreduce () =
  let root_result = ref [||] in
  let all_results = Array.make 4 [||] in
  ignore
    (run ~nranks:4 (fun ctx ->
         let comm = M.comm_world ctx in
         let mine = [| ctx.E.rank; ctx.E.rank * 10 |] in
         (match M.reduce ctx ~root:2 ~op:M.Sum ~comm mine with
         | Some r when ctx.E.rank = 2 -> root_result := r
         | Some _ -> Alcotest.fail "non-root got reduce result"
         | None -> ());
         all_results.(ctx.E.rank) <- M.allreduce ctx ~op:M.Max ~comm mine));
  Alcotest.(check (array int)) "reduce sum" [| 6; 60 |] !root_result;
  Array.iter
    (fun r -> Alcotest.(check (array int)) "allreduce max" [| 3; 30 |] r)
    all_results

let test_gather_allgather () =
  let gathered = ref [||] in
  let all = Array.make 3 [||] in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         let mine = Bytes.of_string (String.make (ctx.E.rank + 1) 'a') in
         (match M.gather ctx ~root:0 ~comm mine with
         | Some parts when ctx.E.rank = 0 -> gathered := parts
         | Some _ -> Alcotest.fail "non-root got gather result"
         | None -> ());
         all.(ctx.E.rank) <- M.allgather ctx ~comm mine));
  check_int "gather count" 3 (Array.length !gathered);
  Array.iteri
    (fun r b -> check_int (Printf.sprintf "len %d" r) (r + 1) (Bytes.length b))
    !gathered;
  Array.iter
    (fun parts ->
      check_int "allgather count" 3 (Array.length parts);
      Array.iteri
        (fun r b ->
          check_int (Printf.sprintf "allgather len %d" r) (r + 1)
            (Bytes.length b))
        parts)
    all

let test_scatter_alltoall () =
  let got = Array.make 3 "" in
  let transposed = Array.make 3 [||] in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         let chunks =
           if ctx.E.rank = 0 then
             Some (Array.init 3 (fun k -> Bytes.of_string (Printf.sprintf "c%d" k)))
           else None
         in
         got.(ctx.E.rank) <- Bytes.to_string (M.scatter ctx ~root:0 ~comm chunks);
         let mine =
           Array.init 3 (fun dst ->
               Bytes.of_string (Printf.sprintf "%d>%d" ctx.E.rank dst))
         in
         transposed.(ctx.E.rank) <- M.alltoall ctx ~comm mine));
  Array.iteri
    (fun r s -> check_string (Printf.sprintf "scatter %d" r) (Printf.sprintf "c%d" r) s)
    got;
  Array.iteri
    (fun dst parts ->
      Array.iteri
        (fun src b ->
          check_string "alltoall cell"
            (Printf.sprintf "%d>%d" src dst)
            (Bytes.to_string b))
        parts)
    transposed

let test_collective_mismatch () =
  let raised = ref false in
  (try
     ignore
       (run ~nranks:2 (fun ctx ->
            let comm = M.comm_world ctx in
            if ctx.E.rank = 0 then M.barrier ctx comm
            else ignore (M.allreduce ctx ~op:M.Sum ~comm [| 1 |])))
   with E.Mismatch _ -> raised := true);
  check_bool "mismatch detected" true !raised

let test_collective_subset_deadlocks () =
  let raised = ref false in
  (try
     ignore
       (run ~nranks:3 (fun ctx ->
            let comm = M.comm_world ctx in
            if ctx.E.rank < 2 then M.barrier ctx comm))
   with E.Deadlock _ -> raised := true);
  check_bool "subset collective deadlocks" true !raised

let test_ibarrier_overlap () =
  (* Work can proceed between posting and completing the ibarrier. *)
  let progressed = ref 0 in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         let req = M.ibarrier ctx comm in
         incr progressed;  (* reached without blocking *)
         ignore (M.wait ctx req)));
  check_int "all ranks got past the post" 3 !progressed

let test_ibarrier_not_complete_early () =
  (* Rank 0 posts and tests before anyone else arrived: incomplete. *)
  let early = ref None in
  ignore
    (run ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         let req = M.ibarrier ctx comm in
         if ctx.E.rank = 0 then early := Some (M.test ctx req <> None);
         ignore (M.wait ctx req)));
  check_bool "rank 0 tested before rank 1 arrived" true (!early = Some false)

let test_iallreduce_value () =
  let results = Array.make 3 [||] in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         let req = M.iallreduce ctx ~op:M.Sum ~comm [| ctx.E.rank; 10 |] in
         results.(ctx.E.rank) <- M.wait_ints ctx req));
  Array.iter
    (fun r -> Alcotest.(check (array int)) "iallreduce sum" [| 3; 30 |] r)
    results

let test_iallreduce_mismatch_with_barrier () =
  let raised = ref false in
  (try
     ignore
       (run ~nranks:2 (fun ctx ->
            let comm = M.comm_world ctx in
            if ctx.E.rank = 0 then ignore (M.ibarrier ctx comm)
            else ignore (M.iallreduce ctx ~op:M.Sum ~comm [| 1 |])))
   with E.Mismatch _ -> raised := true);
  check_bool "nonblocking collectives still slot-checked" true !raised

(* ------------------------------------------------------------------ *)
(* Communicators                                                        *)
(* ------------------------------------------------------------------ *)

let test_comm_dup () =
  let ids = Array.make 3 (-1) in
  ignore
    (run ~nranks:3 (fun ctx ->
         let comm = M.comm_world ctx in
         let dup = M.comm_dup ctx comm in
         ids.(ctx.E.rank) <- dup.C.id;
         (* The dup is usable for collectives. *)
         M.barrier ctx dup));
  check_bool "fresh id" true (ids.(0) <> C.world_id);
  check_int "all ranks agree (0=1)" ids.(0) ids.(1);
  check_int "all ranks agree (1=2)" ids.(1) ids.(2)

let test_comm_split () =
  let sizes = Array.make 4 0 in
  let ranks_in_new = Array.make 4 (-1) in
  ignore
    (run ~nranks:4 (fun ctx ->
         let comm = M.comm_world ctx in
         let color = ctx.E.rank mod 2 in
         (* Reverse ordering within the evens via the key. *)
         let key = if color = 0 then -ctx.E.rank else ctx.E.rank in
         let sub = M.comm_split ctx ~color ~key comm in
         sizes.(ctx.E.rank) <- C.size sub;
         ranks_in_new.(ctx.E.rank) <- M.comm_rank ctx sub;
         M.barrier ctx sub));
  Array.iter (fun s -> check_int "split size" 2 s) sizes;
  (* Evens sorted by key (-rank): rank 2 first, rank 0 second. *)
  check_int "rank 2 is first in evens" 0 ranks_in_new.(2);
  check_int "rank 0 is second in evens" 1 ranks_in_new.(0);
  (* Odds keep natural order. *)
  check_int "rank 1 first in odds" 0 ranks_in_new.(1);
  check_int "rank 3 second in odds" 1 ranks_in_new.(3)

let test_split_comms_are_independent () =
  (* Collectives on sibling communicators must not interfere. *)
  let sums = Array.make 4 0 in
  ignore
    (run ~nranks:4 (fun ctx ->
         let comm = M.comm_world ctx in
         let sub = M.comm_split ctx ~color:(ctx.E.rank / 2) ~key:0 comm in
         let r = M.allreduce ctx ~op:M.Sum ~comm:sub [| ctx.E.rank |] in
         sums.(ctx.E.rank) <- r.(0)));
  check_int "group {0,1}" 1 sums.(0);
  check_int "group {0,1}" 1 sums.(1);
  check_int "group {2,3}" 5 sums.(2);
  check_int "group {2,3}" 5 sums.(3)

(* ------------------------------------------------------------------ *)
(* Tracing                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_records_mpi_calls () =
  let trace = Recorder.Trace.create ~nranks:2 in
  ignore
    (run ~trace ~nranks:2 (fun ctx ->
         let comm = M.comm_world ctx in
         if ctx.E.rank = 0 then
           M.send ctx ~dst:1 ~tag:4 ~comm (Bytes.of_string "abcd")
         else ignore (M.recv ctx ~src:M.any_source ~tag:M.any_tag ~comm);
         M.barrier ctx comm));
  let all = Recorder.Trace.records trace in
  let funcs r = List.map (fun (x : Recorder.Record.t) -> x.func) r in
  let r0 = Recorder.Trace.rank_records trace 0 in
  let r1 = Recorder.Trace.rank_records trace 1 in
  Alcotest.(check (list string)) "rank0 calls" [ "MPI_Send"; "MPI_Barrier" ]
    (funcs r0);
  Alcotest.(check (list string)) "rank1 calls" [ "MPI_Recv"; "MPI_Barrier" ]
    (funcs r1);
  check_int "total" 4 (List.length all);
  (* The wildcard receive's status was recovered into the args. *)
  let recv = List.hd r1 in
  check_string "recorded wildcard src" (string_of_int M.any_source)
    (Recorder.Record.arg recv 0);
  check_string "recovered status src" "0" (Recorder.Record.arg recv 4);
  check_string "recovered status tag" "4" (Recorder.Record.arg recv 5)

let test_deterministic_traces () =
  let run_once () =
    let trace = Recorder.Trace.create ~nranks:3 in
    ignore
      (run ~trace ~nranks:3 (fun ctx ->
           let comm = M.comm_world ctx in
           let next = (ctx.E.rank + 1) mod 3 in
           let prev = (ctx.E.rank + 2) mod 3 in
           let r = M.irecv ctx ~src:prev ~tag:0 ~comm in
           M.send ctx ~dst:next ~tag:0 ~comm (Bytes.of_string "ring");
           ignore (M.wait ctx r);
           M.barrier ctx comm));
    Recorder.Codec.encode ~nranks:(Recorder.Trace.nranks trace)
      (Recorder.Trace.records trace)
  in
  check_string "identical traces" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_allreduce_sum_equals_sequential =
  QCheck2.Test.make ~name:"allreduce Sum matches sequential sum" ~count:50
    QCheck2.Gen.(
      pair (int_range 1 6) (list_size (int_range 1 5) (int_range (-100) 100)))
    (fun (nranks, base) ->
      let width = List.length base in
      let expected =
        Array.init width (fun j ->
            let b = List.nth base j in
            let s = ref 0 in
            for r = 0 to nranks - 1 do
              s := !s + (b * (r + 1))
            done;
            !s)
      in
      let results = Array.make nranks [||] in
      ignore
        (run ~nranks (fun ctx ->
             let comm = M.comm_world ctx in
             let mine =
               Array.of_list (List.map (fun b -> b * (ctx.E.rank + 1)) base)
             in
             results.(ctx.E.rank) <- M.allreduce ctx ~op:M.Sum ~comm mine));
      Array.for_all (fun r -> r = expected) results)

let prop_ring_delivery =
  QCheck2.Test.make ~name:"ring send/recv delivers each rank's payload"
    ~count:30
    QCheck2.Gen.(int_range 2 8)
    (fun nranks ->
      let got = Array.make nranks (-1) in
      ignore
        (run ~nranks (fun ctx ->
             let comm = M.comm_world ctx in
             let next = (ctx.E.rank + 1) mod nranks in
             let prev = (ctx.E.rank + nranks - 1) mod nranks in
             let r = M.irecv ctx ~src:prev ~tag:0 ~comm in
             M.send ctx ~dst:next ~tag:0 ~comm
               (Bytes.of_string (string_of_int ctx.E.rank));
             let data, _ = M.wait ctx r in
             got.(ctx.E.rank) <- int_of_string (Bytes.to_string data)));
      Array.to_list got
      = List.init nranks (fun r -> (r + nranks - 1) mod nranks))

let () =
  Alcotest.run "mpisim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "all ranks run" `Quick test_all_ranks_run;
          Alcotest.test_case "single shot" `Quick test_single_shot;
          Alcotest.test_case "exception propagates" `Quick
            test_rank_exception_propagates;
        ] );
      ( "p2p",
        [
          Alcotest.test_case "send/recv" `Quick test_send_recv;
          Alcotest.test_case "recv blocks until send" `Quick
            test_recv_blocks_until_send;
          Alcotest.test_case "wildcard recv" `Quick test_wildcard_recv;
          Alcotest.test_case "fifo per channel" `Quick
            test_message_ordering_same_channel;
          Alcotest.test_case "isend/irecv/wait" `Quick test_isend_irecv_wait;
          Alcotest.test_case "waitall" `Quick test_waitall;
          Alcotest.test_case "test/testsome" `Quick test_test_and_testsome;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "barrier" `Quick test_barrier_synchronizes;
          Alcotest.test_case "bcast" `Quick test_bcast;
          Alcotest.test_case "reduce/allreduce" `Quick
            test_reduce_and_allreduce;
          Alcotest.test_case "gather/allgather" `Quick test_gather_allgather;
          Alcotest.test_case "scatter/alltoall" `Quick test_scatter_alltoall;
          Alcotest.test_case "kind mismatch" `Quick test_collective_mismatch;
          Alcotest.test_case "subset deadlocks" `Quick
            test_collective_subset_deadlocks;
          Alcotest.test_case "ibarrier overlap" `Quick test_ibarrier_overlap;
          Alcotest.test_case "ibarrier incomplete early" `Quick
            test_ibarrier_not_complete_early;
          Alcotest.test_case "iallreduce value" `Quick test_iallreduce_value;
          Alcotest.test_case "nonblocking mismatch" `Quick
            test_iallreduce_mismatch_with_barrier;
        ] );
      ( "comms",
        [
          Alcotest.test_case "dup" `Quick test_comm_dup;
          Alcotest.test_case "split" `Quick test_comm_split;
          Alcotest.test_case "split independence" `Quick
            test_split_comms_are_independent;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "records MPI calls" `Quick
            test_trace_records_mpi_calls;
          Alcotest.test_case "deterministic" `Quick test_deterministic_traces;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_allreduce_sum_equals_sequential; prop_ring_delivery ] );
    ]
