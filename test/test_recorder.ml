(* Tests for the Recorder+ tracing library: record formatting, the
   interception wrapper (call chains, out-parameters, exceptions), the codec
   round-trip, and the generated signature registries. *)

module R = Recorder.Record
module T = Recorder.Trace
module Codec = Recorder.Codec
module Sig = Recorder.Signatures

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Records                                                              *)
(* ------------------------------------------------------------------ *)

let test_layer_round_trip () =
  List.iter
    (fun l ->
      match R.layer_of_string (R.layer_to_string l) with
      | Some l' -> check_bool "layer round trip" true (l = l')
      | None -> Alcotest.fail "layer did not round trip")
    R.all_layers;
  check_bool "unknown layer" true (R.layer_of_string "NOPE" = None)

let sample_record =
  {
    R.rank = 1;
    seq = 3;
    tstart = 10;
    tend = 11;
    layer = R.Posix;
    func = "pwrite";
    args = [| "5"; "<buf>"; "100"; "0" |];
    ret = "100";
    call_path = [ (R.Pnetcdf, "ncmpi_put_vara_all"); (R.Mpiio, "MPI_File_write_at_all") ];
  }

let test_call_chain_format () =
  check_string "chain"
    "app -> PNETCDF:ncmpi_put_vara_all -> MPIIO:MPI_File_write_at_all -> POSIX:pwrite"
    (Format.asprintf "%a" R.pp_call_chain sample_record)

let test_arg_accessors () =
  check_string "arg" "100" (R.arg sample_record 2);
  check_int "int arg" 100 (R.int_arg sample_record 2);
  (try
     ignore (R.arg sample_record 9);
     Alcotest.fail "expected failure"
   with Failure msg ->
     check_bool "describes problem" true (String.length msg > 10));
  try
    ignore (R.int_arg sample_record 1);
    Alcotest.fail "expected failure"
  with Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Trace collection                                                     *)
(* ------------------------------------------------------------------ *)

let test_intercept_basic () =
  let t = T.create ~nranks:2 in
  let v =
    T.intercept t ~rank:0 ~layer:R.Posix ~func:"open"
      ~args:[| "/f"; "O_RDWR" |] ~ret:string_of_int (fun () -> 5)
  in
  check_int "returns value" 5 v;
  match T.records t with
  | [ r ] ->
    check_string "func" "open" r.R.func;
    check_string "ret" "5" r.R.ret;
    check_int "seq" 0 r.R.seq;
    check_bool "tstart < tend" true (r.R.tstart < r.R.tend);
    check_bool "no chain" true (r.R.call_path = [])
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_nested_call_chain () =
  let t = T.create ~nranks:1 in
  ignore
    (T.intercept t ~rank:0 ~layer:R.Pnetcdf ~func:"ncmpi_put_vara_all"
       ~args:[||] ~ret:(fun () -> "0")
       (fun () ->
         T.intercept t ~rank:0 ~layer:R.Mpiio ~func:"MPI_File_write_at_all"
           ~args:[||] ~ret:(fun () -> "0")
           (fun () ->
             T.intercept t ~rank:0 ~layer:R.Posix ~func:"pwrite" ~args:[||]
               ~ret:(fun () -> "0")
               (fun () -> ()))));
  let recs = T.rank_records t 0 in
  check_int "three records" 3 (List.length recs);
  let by_func f = List.find (fun (r : R.t) -> r.func = f) recs in
  let outer = by_func "ncmpi_put_vara_all" in
  let inner = by_func "pwrite" in
  check_bool "outer has empty chain" true (outer.R.call_path = []);
  Alcotest.(check (list string))
    "inner chain"
    [ "ncmpi_put_vara_all"; "MPI_File_write_at_all" ]
    (List.map snd inner.R.call_path);
  (* Program order by seq: the outer call entered first. *)
  check_bool "outer before inner" true (outer.R.seq < inner.R.seq)

let test_out_parameters () =
  let t = T.create ~nranks:1 in
  let args = [| "-1"; "?" |] in
  ignore
    (T.intercept t ~rank:0 ~layer:R.Mpi ~func:"MPI_Recv" ~args
       ~ret:(fun () -> "0")
       (fun () -> args.(1) <- "42"));
  match T.records t with
  | [ r ] -> check_string "post-invocation arg stored" "42" (R.arg r 1)
  | _ -> Alcotest.fail "expected one record"

let test_exception_still_recorded () =
  let t = T.create ~nranks:1 in
  (try
     T.intercept t ~rank:0 ~layer:R.Posix ~func:"write" ~args:[||]
       ~ret:string_of_int (fun () -> failwith "EIO")
   with Failure _ -> 0)
  |> ignore;
  match T.records t with
  | [ r ] ->
    check_string "raised marker" "<raised>" r.R.ret;
    check_bool "stack unwound" true (not (T.is_tracing t ~rank:0))
  | _ -> Alcotest.fail "expected one record"

let test_per_rank_isolation () =
  let t = T.create ~nranks:3 in
  for rank = 0 to 2 do
    for k = 0 to rank do
      ignore
        (T.intercept t ~rank ~layer:R.App ~func:(Printf.sprintf "f%d" k)
           ~args:[||] ~ret:string_of_int (fun () -> k))
    done
  done;
  check_int "rank 0" 1 (List.length (T.rank_records t 0));
  check_int "rank 2" 3 (List.length (T.rank_records t 2));
  check_int "total" 6 (T.record_count t);
  T.reset t;
  check_int "reset" 0 (T.record_count t)

let test_rank_bounds () =
  let t = T.create ~nranks:2 in
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Trace: rank out of range") (fun () ->
      ignore
        (T.intercept t ~rank:5 ~layer:R.App ~func:"f" ~args:[||]
           ~ret:string_of_int (fun () -> 0)))

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)
(* ------------------------------------------------------------------ *)

let test_escape_round_trip () =
  let cases = [ "plain"; "with space"; "pct%sign"; "tab\there"; "nl\nline"; "" ] in
  List.iter
    (fun s -> check_string "escape round trip" s (Codec.unescape (Codec.escape s)))
    cases;
  check_bool "escaped has no spaces" true
    (not (String.contains (Codec.escape "a b c") ' '))

let build_sample_trace () =
  let t = T.create ~nranks:2 in
  ignore
    (T.intercept t ~rank:0 ~layer:R.Posix ~func:"open"
       ~args:[| "/tmp/x y.nc"; "O_CREAT|O_RDWR" |] ~ret:string_of_int
       (fun () -> 3));
  ignore
    (T.intercept t ~rank:0 ~layer:R.Pnetcdf ~func:"ncmpi_put_vara_all"
       ~args:[| "0"; "1" |] ~ret:string_of_int
       (fun () ->
         T.intercept t ~rank:0 ~layer:R.Posix ~func:"pwrite"
           ~args:[| "3"; "<buf>"; "100"; "0" |] ~ret:string_of_int
           (fun () -> 100)));
  ignore
    (T.intercept t ~rank:1 ~layer:R.Mpi ~func:"MPI_Barrier" ~args:[| "0" |]
       ~ret:(fun () -> "0")
       (fun () -> ()));
  t

let test_codec_round_trip () =
  let t = build_sample_trace () in
  let original = T.records t in
  let d = Codec.decode_ext (Codec.encode ~nranks:(T.nranks t) original) in
  check_int "nranks" 2 d.Codec.nranks;
  check_int "record count" (List.length original) (List.length d.Codec.records);
  List.iter2
    (fun (a : R.t) (b : R.t) ->
      check_bool "records equal" true (a = b))
    original d.Codec.records

let test_codec_file_round_trip () =
  let t = build_sample_trace () in
  let path = Filename.temp_file "verifyio" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Codec.encode ~nranks:(T.nranks t) (T.records t)));
      let folded = Codec.fold_records path ~init:[] ~f:(fun acc r -> r :: acc) in
      check_int "nranks" 2 folded.Codec.f_nranks;
      check_bool "records" true (List.rev folded.Codec.f_value = T.records t))

let test_codec_rejects_garbage () =
  List.iter
    (fun bad ->
      match Codec.decode_ext bad with
      | exception Codec.Malformed _ -> ()
      | _ -> Alcotest.fail "expected decode failure")
    [ ""; "NOT-A-TRACE"; "VERIFYIO-TRACE 1\nnranks x"; "VERIFYIO-TRACE 2\nnranks 1" ]

let test_codec_dictionary_compresses () =
  (* Many records with the same function should reference one table entry. *)
  let t = T.create ~nranks:1 in
  for _ = 1 to 50 do
    ignore
      (T.intercept t ~rank:0 ~layer:R.Posix ~func:"pwrite"
         ~args:[| "3"; "<buf>"; "8"; "0" |] ~ret:string_of_int (fun () -> 8))
  done;
  let s = Codec.encode ~nranks:1 (T.records t) in
  (* The function name must appear exactly once (in the dictionary). *)
  let count_occurrences hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i acc =
      if i + nn > nh then acc
      else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check_int "func name appears once" 1 (count_occurrences s "pwrite")

let prop_codec_round_trip =
  let layer_gen =
    QCheck2.Gen.oneofl Recorder.Record.all_layers
  in
  let string_gen =
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '%'; '/'; ':'; ','; '\t' ])
        (int_range 0 8))
  in
  let record_gen =
    QCheck2.Gen.(
      let* rank = int_range 0 3 in
      let* seq = int_range 0 50 in
      let* layer = layer_gen in
      let* func = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
      let* args = list_size (int_range 0 5) string_gen in
      let* ret = string_gen in
      let* path =
        list_size (int_range 0 3) (pair layer_gen (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))
      in
      return
        {
          R.rank;
          seq;
          tstart = (rank * 10000) + (seq * 2);
          tend = (rank * 10000) + (seq * 2) + 1;
          layer;
          func;
          args = Array.of_list args;
          ret;
          call_path = path;
        })
  in
  QCheck2.Test.make ~name:"codec round-trips arbitrary records" ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) record_gen)
    (fun records ->
      (* The codec sorts by (rank, seq); deduplicate keys so order is
         well-defined for comparison. *)
      let dedup =
        List.sort_uniq
          (fun (a : R.t) (b : R.t) -> compare (a.rank, a.seq) (b.rank, b.seq))
          records
      in
      let encoded = Codec.encode ~nranks:4 dedup in
      let d = Codec.decode_ext encoded in
      d.Codec.nranks = 4 && d.Codec.records = dedup)

(* ------------------------------------------------------------------ *)
(* Signatures                                                           *)
(* ------------------------------------------------------------------ *)

let test_signature_counts_close_to_paper () =
  (* Paper's Table II: 749 / 300 / 915. We accept +-15%. *)
  let close name got paper =
    let lo = paper * 85 / 100 and hi = paper * 115 / 100 in
    check_bool
      (Printf.sprintf "%s count %d within 15%% of %d" name got paper)
      true
      (got >= lo && got <= hi)
  in
  close "HDF5" (Sig.count Sig.HDF5) 749;
  close "NetCDF" (Sig.count Sig.NetCDF) 300;
  close "PnetCDF" (Sig.count Sig.PnetCDF) 915

let test_signature_membership () =
  check_bool "H5Dwrite" true (Sig.supported Sig.HDF5 "H5Dwrite");
  check_bool "H5Fflush" true (Sig.supported Sig.HDF5 "H5Fflush");
  check_bool "nc_put_var_schar" true (Sig.supported Sig.NetCDF "nc_put_var_schar");
  check_bool "ncmpi_put_vara_all (flexible)" true
    (Sig.supported Sig.PnetCDF "ncmpi_put_vara_all");
  check_bool "ncmpi_iput_vara_int" true
    (Sig.supported Sig.PnetCDF "ncmpi_iput_vara_int");
  check_bool "ncmpi_wait_all" true (Sig.supported Sig.PnetCDF "ncmpi_wait_all");
  check_bool "unknown rejected" false (Sig.supported Sig.HDF5 "H5Bogus")

let test_signature_no_duplicates () =
  List.iter
    (fun lib ->
      let l = Sig.functions lib in
      check_int
        (Sig.library_to_string lib ^ " deduped")
        (List.length l)
        (List.length (List.sort_uniq compare l)))
    [ Sig.HDF5; Sig.NetCDF; Sig.PnetCDF ]

let test_table_ii_rows () =
  match Sig.table_ii_rows with
  | [ ("Recorder", Some 84, None, None); ("Recorder+", Some h, Some n, Some p) ]
    ->
    check_bool "all positive" true (h > 0 && n > 0 && p > 0)
  | _ -> Alcotest.fail "unexpected table II shape"

let () =
  Alcotest.run "recorder"
    [
      ( "record",
        [
          Alcotest.test_case "layer round trip" `Quick test_layer_round_trip;
          Alcotest.test_case "call chain format" `Quick test_call_chain_format;
          Alcotest.test_case "arg accessors" `Quick test_arg_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "intercept basic" `Quick test_intercept_basic;
          Alcotest.test_case "nested call chain" `Quick test_nested_call_chain;
          Alcotest.test_case "out parameters" `Quick test_out_parameters;
          Alcotest.test_case "exception recorded" `Quick
            test_exception_still_recorded;
          Alcotest.test_case "per-rank isolation" `Quick test_per_rank_isolation;
          Alcotest.test_case "rank bounds" `Quick test_rank_bounds;
        ] );
      ( "codec",
        [
          Alcotest.test_case "escape round trip" `Quick test_escape_round_trip;
          Alcotest.test_case "round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "file round trip" `Quick test_codec_file_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "dictionary compresses" `Quick
            test_codec_dictionary_compresses;
          QCheck_alcotest.to_alcotest prop_codec_round_trip;
        ] );
      ( "signatures",
        [
          Alcotest.test_case "counts near paper" `Quick
            test_signature_counts_close_to_paper;
          Alcotest.test_case "membership" `Quick test_signature_membership;
          Alcotest.test_case "no duplicates" `Quick test_signature_no_duplicates;
          Alcotest.test_case "table II rows" `Quick test_table_ii_rows;
        ] );
    ]
