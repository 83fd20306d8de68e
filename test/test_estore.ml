(* Tests for trace decoding robustness through the columnar event store:
   malformed traces must fail loudly with descriptive errors (never
   silently misattribute I/O), descriptor reuse must rebind correctly,
   and in-flight records must decode. *)

module R = Recorder.Record
module V = Verifyio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(rank = 0) ~seq ~layer ~func ~args ?(ret = "0") () =
  {
    R.rank;
    seq;
    tstart = (rank * 1000) + (seq * 2);
    tend = (rank * 1000) + (seq * 2) + 1;
    layer;
    func;
    args = Array.of_list args;
    ret;
    call_path = [];
  }

let expect_malformed ?expect records =
  match V.Estore.of_records ~nranks:2 records with
  | exception V.Estore.Malformed msg ->
    (match expect with
    | Some needle ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check_bool (Printf.sprintf "error %S mentions %S" msg needle) true
        (contains msg needle)
    | None -> ())
  | _ -> Alcotest.fail "expected Malformed"

let test_io_on_unknown_fd () =
  expect_malformed ~expect:"unknown/closed handle"
    [ mk ~seq:0 ~layer:R.Posix ~func:"pwrite" ~args:[ "9"; "4"; "0" ] ~ret:"4" () ]

let test_io_after_close () =
  expect_malformed ~expect:"unknown/closed handle"
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"close" ~args:[ "3" ] ();
      mk ~seq:2 ~layer:R.Posix ~func:"pread" ~args:[ "3"; "4"; "0" ] ~ret:"0" ();
    ]

let test_garbage_args () =
  expect_malformed ~expect:"expected an int"
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "lots"; "0" ] ~ret:"4" ();
    ]

let test_unknown_posix_func () =
  expect_malformed ~expect:"unknown POSIX function"
    [ mk ~seq:0 ~layer:R.Posix ~func:"mystery_call" ~args:[] () ]

let test_bad_whence () =
  expect_malformed ~expect:"unknown whence"
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"lseek" ~args:[ "3"; "0"; "SEEK_WAT" ] ~ret:"0" ();
    ]

let test_fd_reuse_rebinds () =
  let records =
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/a"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "4"; "0" ] ~ret:"4" ();
      mk ~seq:2 ~layer:R.Posix ~func:"close" ~args:[ "3" ] ();
      (* fd 3 reused for a different file *)
      mk ~seq:3 ~layer:R.Posix ~func:"open" ~args:[ "/b"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:4 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "4"; "0" ] ~ret:"4" ();
      mk ~seq:5 ~layer:R.Posix ~func:"close" ~args:[ "3" ] ();
    ]
  in
  let d = V.Estore.of_records ~nranks:2 records in
  let fids =
    List.filter_map
      (fun i -> if V.Estore.is_data d i then Some (V.Estore.fid d i) else None)
      (List.init (V.Estore.length d) Fun.id)
  in
  check_int "two different files" 2 (List.length (List.sort_uniq compare fids));
  check_bool "fid of /a resolved" true (V.Estore.fid_of_path d "/a" <> None);
  check_bool "fid of /b resolved" true (V.Estore.fid_of_path d "/b" <> None)

let test_in_flight_open_skipped () =
  (* An open that never returned has no descriptor; it must decode to a
     non-I/O op rather than poison the handle table. *)
  let records =
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ]
        ~ret:Recorder.Trace.in_flight_ret ();
    ]
  in
  let d = V.Estore.of_records ~nranks:2 records in
  let ndata = ref 0 in
  for i = 0 to V.Estore.length d - 1 do
    if V.Estore.is_data d i then incr ndata
  done;
  check_int "no data ops" 0 !ndata

let test_append_offset_uses_global_eof () =
  (* Rank 0 extends the file; rank 1's later O_APPEND write must land at
     the grown EOF (reconstructed in global timestamp order). *)
  let records =
    [
      mk ~rank:0 ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~rank:0 ~seq:1 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "10"; "0" ] ~ret:"10" ();
      mk ~rank:1 ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_RDWR|O_APPEND" ] ~ret:"3" ();
      mk ~rank:1 ~seq:1 ~layer:R.Posix ~func:"write" ~args:[ "3"; "5" ] ~ret:"5" ();
    ]
  in
  (* Rank 1's records must come after rank 0's in the global clock. *)
  let records =
    List.map
      (fun (r : R.t) ->
        if r.rank = 1 then { r with tstart = r.tstart + 5000; tend = r.tend + 5000 }
        else r)
      records
  in
  let d = V.Estore.of_records ~nranks:2 records in
  let append_write =
    List.find
      (fun i -> V.Estore.rank d i = 1 && V.Estore.is_data d i && V.Estore.is_write d i)
      (List.init (V.Estore.length d) Fun.id)
  in
  check_int "append lands at EOF" 10 (V.Estore.iv_lo d append_write);
  check_int "append extent" 15 (V.Estore.iv_hi d append_write)

let test_trunc_resets_eof () =
  let records =
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "100"; "0" ] ~ret:"100" ();
      mk ~seq:2 ~layer:R.Posix ~func:"ftruncate" ~args:[ "3"; "10" ] ();
      mk ~seq:3 ~layer:R.Posix ~func:"lseek" ~args:[ "3"; "0"; "SEEK_END" ] ~ret:"10" ();
      mk ~seq:4 ~layer:R.Posix ~func:"write" ~args:[ "3"; "4" ] ~ret:"4" ();
    ]
  in
  let d = V.Estore.of_records ~nranks:2 records in
  let last_write =
    List.filter
      (fun i -> V.Estore.is_data d i && V.Estore.is_write d i)
      (List.init (V.Estore.length d) Fun.id)
    |> List.rev |> List.hd
  in
  check_int "write after truncate+seek_end" 10 (V.Estore.iv_lo d last_write)

let test_negative_count_malformed () =
  expect_malformed ~expect:"invalid value"
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "-4"; "0" ] ~ret:"-4" ();
    ]

(* Adversarial fuzz: any byte salad either decodes or raises Malformed (via
   the codec's Failure) — the pipeline must never crash with an unexpected
   exception on hostile input. *)
let prop_decoder_total =
  let func_pool =
    [ "open"; "close"; "pwrite"; "pread"; "write"; "read"; "lseek"; "fsync";
      "fopen"; "fclose"; "fwrite"; "fread"; "fseek"; "ftell"; "fflush";
      "ftruncate"; "unlink"; "garbage"; "MPI_File_open"; "MPI_File_close";
      "MPI_File_sync"; "MPI_Barrier"; "MPI_Send"; "MPI_Recv" ]
  in
  let arg_pool =
    [ "0"; "1"; "3"; "-1"; "999999"; "/f"; "O_CREAT|O_RDWR"; "SEEK_SET";
      "SEEK_END"; "w+"; "junk"; "" ]
  in
  QCheck2.Test.make ~name:"decode is total: success or Malformed" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 15)
        (triple (oneofl func_pool)
           (list_size (int_range 0 4) (oneofl arg_pool))
           (oneofl [ "0"; "3"; "-1"; "x"; "" ])))
    (fun calls ->
      let layer_of f =
        if String.length f > 8 && String.sub f 0 8 = "MPI_File" then R.Mpiio
        else if String.length f > 3 && String.sub f 0 4 = "MPI_" then R.Mpi
        else R.Posix
      in
      let records =
        List.mapi
          (fun k (func, args, ret) ->
            mk ~seq:k ~layer:(layer_of func) ~func ~args ~ret ())
          calls
      in
      match V.Estore.of_records ~nranks:2 records with
      | _ -> true
      | exception V.Estore.Malformed _ -> true)

let prop_pipeline_total =
  QCheck2.Test.make
    ~name:"full pipeline is total on decodable traces" ~count:100
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (pair (int_range 0 1) (int_range 0 30)))
    (fun ops ->
      (* Well-formed but arbitrary POSIX traffic on two ranks. *)
      let records =
        List.concat_map
          (fun rank ->
            mk ~rank ~seq:0 ~layer:R.Posix ~func:"open"
              ~args:[ "/fz"; "O_CREAT|O_RDWR" ] ~ret:"3" ()
            :: List.mapi
                 (fun k (kind, off) ->
                   if kind = 0 then
                     mk ~rank ~seq:(k + 1) ~layer:R.Posix ~func:"pwrite"
                       ~args:[ "3"; "4"; string_of_int off ] ~ret:"4" ()
                   else
                     mk ~rank ~seq:(k + 1) ~layer:R.Posix ~func:"pread"
                       ~args:[ "3"; "4"; string_of_int off ] ~ret:"4" ())
                 ops)
          [ 0; 1 ]
      in
      let p = V.Pipeline.prepare ~nranks:2 records in
      List.for_all
        (fun model ->
          let o = V.Pipeline.verify_prepared ~model p in
          o.V.Pipeline.race_count >= 0)
        V.Model.builtin)

(* [Estore.of_file] lowers the GC's space_overhead for the length of a
   load. Two loads overlapping on two domains must leave the process at
   its own setting once both return, whichever finishes first. The
   codec.read delay holds each load inside the override, so starting B
   100 ms after A interleaves them as A in, B in, A out, B out. *)
let test_overlapping_loads_restore_gc () =
  let path = Filename.temp_file "estore_gc" ".vio" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Recorder.Codec.encode ~nranks:1
           [
             mk ~seq:0 ~layer:R.Posix ~func:"open"
               ~args:[ "/g"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
           ]));
  let saved = Gc.get () in
  Gc.set { saved with Gc.space_overhead = 97 };
  Fun.protect
    ~finally:(fun () ->
      Vio_util.Failpoint.clear ();
      Gc.set saved;
      Sys.remove path)
    (fun () ->
      (match Vio_util.Failpoint.configure "codec.read=delay:300" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let load () = V.Estore.length (V.Estore.of_file path) in
      let a = Domain.spawn load in
      Vio_util.Backoff.sleep_ms 100;
      check_int "override active while a load runs" 40
        (Gc.get ()).Gc.space_overhead;
      let b = Domain.spawn load in
      check_int "load a" 1 (Domain.join a);
      check_int "load b" 1 (Domain.join b);
      check_int "space_overhead restored after both loads" 97
        (Gc.get ()).Gc.space_overhead)

(* ---- op order --------------------------------------------------------- *)

module E = V.Estore

let rank_seq (r : R.t) = (r.rank, r.seq)

let in_rank_seq_order records =
  let rec go = function
    | a :: (b :: _ as rest) -> compare (rank_seq a) (rank_seq b) <= 0 && go rest
    | _ -> true
  in
  go records

(* Every per-op accessor agrees, and so do the store-wide views. *)
let op_equal a b i =
  E.rank a i = E.rank b i
  && E.seq a i = E.seq b i
  && E.tstart a i = E.tstart b i
  && E.tend a i = E.tend b i
  && E.layer a i = E.layer b i
  && E.func a i = E.func b i
  && E.ret a i = E.ret b i
  && E.in_flight a i = E.in_flight b i
  && E.degraded a i = E.degraded b i
  && E.nargs a i = E.nargs b i
  && List.for_all (fun j -> E.arg a i j = E.arg b i j) (List.init (E.nargs a i) Fun.id)
  && E.kind_tag a i = E.kind_tag b i
  && E.is_data a i = E.is_data b i
  && E.is_write a i = E.is_write b i
  && E.fid a i = E.fid b i
  && E.fid_opt a i = E.fid_opt b i
  && E.iv_lo a i = E.iv_lo b i
  && E.iv_hi a i = E.iv_hi b i
  && E.api_of a i = E.api_of b i
  && E.kind a i = E.kind b i
  && E.record a i = E.record b i

let stores_equal a b =
  E.length a = E.length b
  && E.nranks a = E.nranks b
  && E.files a = E.files b
  && E.diagnostics a = E.diagnostics b
  && List.for_all
       (fun r -> E.rank_chain a r = E.rank_chain b r)
       (List.init (E.nranks a) Fun.id)
  && List.for_all (op_equal a b) (List.init (E.length a) Fun.id)

let shuffle ~seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let with_encoded fmt ~nranks records f =
  let path = Filename.temp_file "estore_sorted" ".vio" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Recorder.Codec.encode_format fmt ~nranks records));
      f path)

(* Op index order does not depend on the order records arrive in: a
   store built from (rank, seq)-sorted records (which [finish] does not
   sort), from a shuffle of them (which it sorts) and from the encoded
   trace must be the same store. Lenient cases crash a rank, so
   in-flight records and their diagnostics are part of the comparison. *)
let prop_arrival_order =
  QCheck2.Test.make ~name:"sorted, shuffled and file loads build one store"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 0 100_000) bool
        (oneofl [ Recorder.Diagnostic.Strict; Recorder.Diagnostic.Lenient ]))
    (fun (seed, extended, mode) ->
      let profile = if extended then Viogen.Workload.Extended else Classic in
      let p = Viogen.Workload.generate ~profile ~seed () in
      let nranks = p.Viogen.Workload.nranks in
      let abort_rank =
        if mode = Recorder.Diagnostic.Lenient then Some (seed mod nranks, 1 + (seed mod 4))
        else None
      in
      let sorted =
        List.stable_sort
          (fun a b -> compare (rank_seq a) (rank_seq b))
          (Viogen.Workload.run ?abort_rank p)
      in
      let shuffled = shuffle ~seed sorted in
      if in_rank_seq_order shuffled then
        QCheck2.Test.fail_report "shuffle left the records in (rank, seq) order";
      let reference = E.of_records ~mode ~nranks sorted in
      stores_equal reference (E.of_records ~mode ~nranks shuffled)
      && List.for_all
           (fun fmt ->
             with_encoded fmt ~nranks sorted (fun path ->
                 stores_equal reference (E.of_file ~mode path)))
           [ Recorder.Codec.Text; Recorder.Codec.Binary ])

(* Two records with one (rank, seq) key keep their arrival order, whether
   or not the input as a whole arrives sorted. *)
let test_equal_keys_keep_arrival () =
  let dup tag = mk ~seq:1 ~layer:R.Mpi ~func:"MPI_Barrier" ~args:[ tag ] () in
  let first = mk ~seq:0 ~layer:R.Mpi ~func:"MPI_Barrier" ~args:[ "first" ] () in
  let last = mk ~seq:2 ~layer:R.Mpi ~func:"MPI_Barrier" ~args:[ "last" ] () in
  let args_of records =
    let e = E.of_records ~nranks:2 records in
    List.init (E.length e) (fun i -> E.arg e i 0)
  in
  let check name records expect =
    Alcotest.(check (list string)) name expect (args_of records)
  in
  check "presorted a, b" [ dup "a"; dup "b" ] [ "a"; "b" ];
  check "presorted b, a" [ first; dup "b"; dup "a"; last ] [ "first"; "b"; "a"; "last" ];
  check "unsorted a, b" [ last; dup "a"; dup "b"; first ] [ "first"; "a"; "b"; "last" ];
  check "unsorted b, a" [ last; dup "b"; first; dup "a" ] [ "first"; "b"; "a"; "last" ]

(* Ops with equal [tstart] on different ranks are classified in (rank,
   seq) order, which numbers the files and reconstructs EOF. *)
let test_timestamp_ties_in_rank_order () =
  let at ~rank ~seq ~t ~func ~args ?ret () =
    { (mk ~rank ~seq ~layer:R.Posix ~func ~args ?ret ()) with R.tstart = t; tend = t + 1 }
  in
  let opens =
    List.init 4 (fun rank ->
        at ~rank ~seq:0 ~t:0 ~func:"open"
          ~args:[ Printf.sprintf "/r%d" rank; "O_CREAT|O_RDWR" ]
          ~ret:"3" ())
  in
  Alcotest.(check (list (pair string int)))
    "fids in rank order"
    [ ("/r0", 0); ("/r1", 1); ("/r2", 2); ("/r3", 3) ]
    (E.files (E.of_records ~nranks:4 opens));
  let e =
    E.of_records ~nranks:2
      [
        at ~rank:0 ~seq:0 ~t:0 ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
        at ~rank:0 ~seq:1 ~t:10 ~func:"pwrite" ~args:[ "3"; "4"; "0" ] ~ret:"4" ();
        at ~rank:1 ~seq:0 ~t:0 ~func:"open" ~args:[ "/f"; "O_RDWR" ] ~ret:"3" ();
        at ~rank:1 ~seq:1 ~t:10 ~func:"lseek" ~args:[ "3"; "0"; "SEEK_END" ] ~ret:"4" ();
        at ~rank:1 ~seq:2 ~t:20 ~func:"write" ~args:[ "3"; "2" ] ~ret:"2" ();
      ]
  in
  check_int "rank 1 writes at the EOF rank 0's pwrite left" 4 (E.iv_lo e 4)

(* A load forces one major cycle to reclaim the builder's columns; a
   small store must not pay for more than that. *)
let test_one_major_cycle_per_load () =
  let records =
    [
      mk ~seq:0 ~layer:R.Posix ~func:"open" ~args:[ "/f"; "O_CREAT|O_RDWR" ] ~ret:"3" ();
      mk ~seq:1 ~layer:R.Posix ~func:"pwrite" ~args:[ "3"; "4"; "0" ] ~ret:"4" ();
      mk ~seq:2 ~layer:R.Posix ~func:"close" ~args:[ "3" ] ();
    ]
  in
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let before = majors () in
  check_int "ops" 3 (E.length (E.of_records ~nranks:2 records));
  let added = majors () - before in
  check_bool
    (Printf.sprintf "one load ran %d major collections, at most 3 allowed" added)
    true (added <= 3)

let () =
  Alcotest.run "estore-decode"
    [
      ( "malformed",
        [
          Alcotest.test_case "unknown fd" `Quick test_io_on_unknown_fd;
          Alcotest.test_case "use after close" `Quick test_io_after_close;
          Alcotest.test_case "garbage args" `Quick test_garbage_args;
          Alcotest.test_case "unknown func" `Quick test_unknown_posix_func;
          Alcotest.test_case "bad whence" `Quick test_bad_whence;
          Alcotest.test_case "negative count" `Quick
            test_negative_count_malformed;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_decoder_total; prop_pipeline_total ] );
      ( "reconstruction",
        [
          Alcotest.test_case "fd reuse" `Quick test_fd_reuse_rebinds;
          Alcotest.test_case "in-flight open" `Quick test_in_flight_open_skipped;
          Alcotest.test_case "append at global EOF" `Quick
            test_append_offset_uses_global_eof;
          Alcotest.test_case "truncate resets EOF" `Quick test_trunc_resets_eof;
        ] );
      ( "file",
        [
          Alcotest.test_case "overlapping loads restore GC" `Quick
            test_overlapping_loads_restore_gc;
          Alcotest.test_case "one major cycle per load" `Quick
            test_one_major_cycle_per_load;
        ] );
      ( "order",
        [
          Alcotest.test_case "equal keys keep arrival order" `Quick
            test_equal_keys_keep_arrival;
          Alcotest.test_case "timestamp ties in rank order" `Quick
            test_timestamp_ties_in_rank_order;
          QCheck_alcotest.to_alcotest prop_arrival_order;
        ] );
    ]
