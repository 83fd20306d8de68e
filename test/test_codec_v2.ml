(* Binary trace codec (v2) edge cases against the normative wire spec in
   docs/format.md: footer truncation, CRC corruption, version mismatch,
   empty rank segments, and the cross-format round-trip property
   (text -> binary -> estore equals text -> estore). Every failure
   assertion checks that the decoder's message cites the spec section
   that defines the violated rule, and every case decodes both from
   bytes ([decode_ext]) and from a file ([fold_records]), which must
   give one answer. *)

module R = Recorder.Record
module Codec = Recorder.Codec
module Diag = Recorder.Diagnostic
module E = Verifyio.Estore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk rank seq layer func args ret path =
  {
    R.rank;
    seq;
    tstart = (rank * 10_000) + (seq * 2);
    tend = (rank * 10_000) + (seq * 2) + 1;
    layer;
    func;
    args = Array.of_list args;
    ret;
    call_path = path;
  }

(* Three ranks, rank 1 deliberately silent — its segment is present in
   the wire image with a zero record count (format.md §3.3). *)
let sample =
  [
    mk 0 0 R.Posix "open" [ "/data"; "O_RDWR" ] "3" [];
    mk 0 1 R.Posix "pwrite" [ "3"; "8"; "0" ] "8"
      [ (R.Hdf5, "H5Dwrite"); (R.Mpiio, "MPI_File_write_at") ];
    mk 0 2 R.Posix "close" [ "3" ] "0" [];
    mk 2 0 R.Mpi "MPI_Barrier" [ "comm0" ] "0" [];
    mk 2 1 R.Posix "pread" [ "3"; "8"; "0" ] "8" [];
  ]

let encoded () = Codec.encode_binary ~nranks:3 sample

let reason_of = function
  | Codec.Malformed { reason; _ } -> reason
  | e -> raise e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_cites what section reason =
  check_bool
    (Printf.sprintf "%s cites %s: %s" what section reason)
    true
    (contains reason ("format.md " ^ section))

let with_temp_file contents f =
  let path = Filename.temp_file "codec_v2" ".trace" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let answer f =
  match f () with
  | (d : Codec.decoded) -> Ok d
  | exception (Codec.Malformed _ as e) -> Error e

let show = function
  | Ok (d : Codec.decoded) ->
    Printf.sprintf "%d rank(s), %d record(s), diagnostics [%s]" d.Codec.nranks
      (List.length d.Codec.records)
      (String.concat "; " (List.map Diag.to_string d.Codec.diagnostics))
  | Error e -> Printexc.to_string e

(* Decode [s] from bytes and from a file holding them; both must give the
   same records, diagnostics or [Malformed], which is returned. *)
let decode ?(mode = Diag.Strict) s =
  let from_bytes = answer (fun () -> Codec.decode_ext ~mode s) in
  let from_file =
    answer (fun () ->
        with_temp_file s (fun path ->
            let f =
              Codec.fold_records ~mode path ~init:[] ~f:(fun acc r -> r :: acc)
            in
            {
              Codec.nranks = f.Codec.f_nranks;
              records = List.rev f.Codec.f_value;
              diagnostics = f.Codec.f_diagnostics;
            }))
  in
  Alcotest.(check string) "file answer = bytes answer" (show from_bytes)
    (show from_file);
  check_bool "file records = bytes records" true (from_bytes = from_file);
  from_bytes

let decoded = function
  | Ok d -> d
  | Error e -> Alcotest.fail ("unexpected " ^ Printexc.to_string e)

let failure what = function
  | Ok _ -> Alcotest.fail (what ^ " accepted")
  | Error e -> reason_of e

(* ------------------------------------------------------------------ *)
(* Round trip and structure                                            *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let d = decoded (decode (encoded ())) in
  check_int "nranks" 3 d.Codec.nranks;
  check_bool "records identical" true (d.Codec.records = sample)

let test_detects_formats () =
  check_bool "binary detected" true (Codec.detect (encoded ()) = Codec.Binary);
  check_bool "text detected" true
    (Codec.detect (Codec.encode ~nranks:3 sample) = Codec.Text)

let test_empty_rank_segment () =
  (* Rank 1 contributes nothing; the segment must survive the round trip
     and the decoder must not attribute records to it. *)
  let d = decoded (decode (encoded ())) in
  check_int "nranks preserved" 3 d.Codec.nranks;
  check_int "rank 1 has no records" 0
    (List.length (List.filter (fun (r : R.t) -> r.R.rank = 1) d.Codec.records));
  (* A trace that is nothing but empty segments is also valid. *)
  let d = decoded (decode (Codec.encode_binary ~nranks:4 [])) in
  check_int "all-empty nranks" 4 d.Codec.nranks;
  check_int "all-empty records" 0 (List.length d.Codec.records)

let test_fold_binary_file () =
  with_temp_file (encoded ()) (fun path ->
      let folded = Codec.fold_records path ~init:[] ~f:(fun acc r -> r :: acc) in
      check_int "folded nranks" 3 folded.Codec.f_nranks;
      check_int "folded count" 5 folded.Codec.f_records;
      check_bool "folded in trace order" true
        (List.rev folded.Codec.f_value = sample))

(* ------------------------------------------------------------------ *)
(* Corruption: every strict error must cite its spec section            *)
(* ------------------------------------------------------------------ *)

let test_truncated_footer_strict () =
  let s = encoded () in
  let cut = String.sub s 0 (String.length s - 10) in
  check_cites "truncated footer" "\xc2\xa73.5"
    (failure "truncated footer" (decode cut))

let test_truncated_footer_lenient () =
  (* The footer skeleton is gone but header, pool and segments are intact
     and self-delimiting: sequential salvage must recover every record,
     flagged by a Bad_header diagnostic. *)
  let s = encoded () in
  let cut = String.sub s 0 (String.length s - 10) in
  let d = decoded (decode ~mode:Diag.Lenient cut) in
  check_int "all records salvaged" (List.length sample)
    (List.length d.Codec.records);
  check_bool "records intact" true (d.Codec.records = sample);
  check_bool "salvage flagged" true
    (Diag.count_class Diag.Bad_header d.Codec.diagnostics >= 1)

let test_corrupt_crc_strict () =
  (* Flip a bit of the stored CRC-32 itself (format.md §3.5 places it 20
     bytes from the end: before the 8-byte locator and 8-byte trailer
     magic). The body is untouched, so the decode must fail only on the
     checksum comparison. *)
  let s = Bytes.of_string (encoded ()) in
  let pos = Bytes.length s - 20 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x01));
  let reason = failure "corrupt CRC" (decode (Bytes.to_string s)) in
  check_bool ("mentions CRC: " ^ reason) true (contains reason "CRC-32");
  check_cites "corrupt CRC" "\xc2\xa73.5" reason

let test_corrupt_crc_lenient () =
  (* Lenient keeps the (structurally valid) records and reports the
     checksum mismatch as a diagnostic instead of raising. *)
  let s = Bytes.of_string (encoded ()) in
  let pos = Bytes.length s - 20 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x01));
  let d = decoded (decode ~mode:Diag.Lenient (Bytes.to_string s)) in
  check_bool "records kept" true (d.Codec.records = sample);
  check_bool "mismatch reported" true
    (List.exists
       (fun (dg : Diag.t) -> contains dg.Diag.reason "CRC-32")
       d.Codec.diagnostics)

let test_unknown_version_strict () =
  let s = Bytes.of_string (encoded ()) in
  Bytes.set s 8 '\x07' (* version byte follows the 8-byte magic *);
  let reason = failure "unknown version" (decode (Bytes.to_string s)) in
  check_bool ("names version 7: " ^ reason) true (contains reason "7");
  check_cites "unknown version" "\xc2\xa71.2" reason

let test_unknown_version_lenient () =
  (* No decoder for the version exists, so even lenient mode can salvage
     nothing — but it must report the failure rather than raise. *)
  let s = Bytes.of_string (encoded ()) in
  Bytes.set s 8 '\x07';
  let d = decoded (decode ~mode:Diag.Lenient (Bytes.to_string s)) in
  check_int "nothing salvaged" 0 (List.length d.Codec.records);
  check_bool "failure reported" true
    (Diag.count_class Diag.Bad_header d.Codec.diagnostics >= 1)

let test_truncated_mid_segment_strict () =
  (* Cut deep enough to lose record bytes, not just the footer: strict
     must refuse with a positioned error, never return partial data. *)
  let s = encoded () in
  let cut = String.sub s 0 (String.length s * 2 / 3) in
  ignore (failure "truncated body" (decode cut))

(* A uvarint with bit 62 set reads as a negative int; as a count or a
   length it must be rejected, not crash the decoder or what it feeds. *)
let negative = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

let test_negative_counts () =
  (* The first pool entry's length, written over its length byte at 12
     and the next 8 (the 9-byte magic and version, the one-byte flags
     and nranks and the pool's one-byte count come first): an overrun
     (format.md §3.2). *)
  let s = Bytes.of_string (encoded ()) in
  Bytes.blit_string negative 0 s 12 9;
  let s = Bytes.to_string s in
  check_cites "negative pool length" "\xc2\xa73.2"
    (failure "negative pool length" (decode s));
  let d = decoded (decode ~mode:Diag.Lenient s) in
  check_int "nothing salvaged" 0 (List.length d.Codec.records);
  check_bool "overrun reported" true
    (List.exists
       (fun (dg : Diag.t) -> contains dg.Diag.reason "pool entry overruns")
       d.Codec.diagnostics);
  (* nranks, the header's byte 10, widened to the 9-byte varint
     (format.md §3.1); lenient salvage must not report a negative rank
     count either. *)
  let e = encoded () in
  let s = String.sub e 0 10 ^ negative ^ String.sub e 11 (String.length e - 11) in
  check_cites "negative rank count" "\xc2\xa73.1"
    (failure "negative rank count" (decode s));
  let d = decoded (decode ~mode:Diag.Lenient s) in
  check_int "no ranks" 0 d.Codec.nranks

(* Overwrite 12 bytes inside rank 0's segment with 0xff: the segment no
   longer decodes, and the body CRC no longer matches. The records are
   decoded before the CRC is checked (format.md §3.5), so strict mode
   reports the segment's error and lenient mode lists the CRC mismatch
   after the abandoned segment. *)
let damaged_segment () =
  let s = Bytes.of_string (encoded ()) in
  let u64 pos = Int64.to_int (Bytes.get_int64_le s pos) in
  let footer = u64 (Bytes.length s - 16) in
  (* rank 0's offset opens the footer; skip its count and first seq *)
  let seg0 = u64 footer in
  Bytes.fill s (seg0 + 2) 12 '\xff';
  Bytes.to_string s

let test_damaged_segment_strict () =
  let reason = failure "damaged segment" (decode (damaged_segment ())) in
  check_bool ("segment error, not CRC: " ^ reason) true
    (contains reason "varint longer than 10 bytes");
  check_cites "damaged segment" "\xc2\xa72.1" reason

let test_damaged_segment_lenient () =
  let d = decoded (decode ~mode:Diag.Lenient (damaged_segment ())) in
  check_bool "ranks 1 and 2 kept" true
    (d.Codec.records = List.filter (fun (r : R.t) -> r.R.rank <> 0) sample);
  let index p =
    let rec go i = function
      | [] -> Alcotest.fail "diagnostic missing"
      | (dg : Diag.t) :: tl -> if p dg then i else go (i + 1) tl
    in
    go 0 d.Codec.diagnostics
  in
  let segment = index (fun dg -> dg.Diag.fault = Diag.Truncated_trace) in
  let crc = index (fun dg -> contains dg.Diag.reason "CRC-32") in
  check_bool "CRC mismatch listed after the segment" true (segment < crc)

(* ------------------------------------------------------------------ *)
(* Faulted reads: one answer from both file entry points                *)
(* ------------------------------------------------------------------ *)

(* 120 records over three ranks, so a short read or a flipped bit lands
   in a record segment as often as in the header or footer. *)
let wider =
  List.concat_map
    (fun rank ->
      List.init 40 (fun seq ->
          mk rank seq R.Posix "pwrite"
            [ "3"; "8"; string_of_int (8 * seq) ]
            "8"
            [ (R.Mpiio, "MPI_File_write_at") ]))
    [ 0; 1; 2 ]

(* Under codec.read's data policies, [fold_records path] and
   [decode_ext (read_file path)] read the same faulted bytes, so they
   give the same records, diagnostics or [Malformed]. The fabric is
   configured afresh before each call, so both draw the same hit
   number. *)
let test_faulted_file_one_answer () =
  let module F = Vio_util.Failpoint in
  let configure spec =
    match F.configure spec with Ok () -> () | Error e -> Alcotest.fail e
  in
  let fold ~mode path =
    let f = Codec.fold_records ~mode path ~init:[] ~f:(fun acc r -> r :: acc) in
    {
      Codec.nranks = f.Codec.f_nranks;
      records = List.rev f.Codec.f_value;
      diagnostics = f.Codec.f_diagnostics;
    }
  in
  let check fmt path spec mode =
    let what =
      Printf.sprintf "%s %s %s" (Codec.format_name fmt) spec
        (match mode with Diag.Strict -> "strict" | Diag.Lenient -> "lenient")
    in
    configure spec;
    let from_file = answer (fun () -> fold ~mode path) in
    configure spec;
    let from_bytes =
      answer (fun () -> Codec.decode_ext ~mode (Codec.read_file path))
    in
    Alcotest.(check string) (what ^ ": file answer = bytes answer")
      (show from_bytes) (show from_file);
    check_bool (what ^ ": same records") true (from_bytes = from_file);
    (* The policy acts on the file path too: strictly, the damaged
       trace is refused. *)
    if mode = Diag.Strict then
      check_bool (what ^ ": refused") true (Result.is_error from_file)
  in
  Fun.protect ~finally:F.clear (fun () ->
      List.iter
        (fun fmt ->
          let specs =
            [ "codec.read=short:64"; "codec.read=short:0" ]
            @
            if fmt = Codec.Binary then
              List.map (Printf.sprintf "codec.read=bitflip:%d") [ 1; 2; 3 ]
            else []
          in
          with_temp_file (Codec.encode_format fmt ~nranks:3 wider) (fun path ->
              List.iter
                (fun spec ->
                  List.iter (check fmt path spec) [ Diag.Strict; Diag.Lenient ])
                specs))
        [ Codec.Text; Codec.Binary ])

(* ------------------------------------------------------------------ *)
(* Property: text -> binary -> estore equals text -> estore             *)
(* ------------------------------------------------------------------ *)

let estores_equal a b =
  E.nranks a = E.nranks b
  && E.length a = E.length b
  && (let n = E.length a in
      let rec go i = i >= n || (E.record a i = E.record b i && go (i + 1)) in
      go 0)

let prop_cross_format_estore =
  let layer_gen = QCheck2.Gen.oneofl R.all_layers in
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
        list_size (int_range 0 3)
          (pair layer_gen (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))
      in
      return (mk rank seq layer func args ret path))
  in
  QCheck2.Test.make
    ~name:"estore from binary file equals estore from text file" ~count:150
    QCheck2.Gen.(list_size (int_range 0 25) record_gen)
    (fun records ->
      let dedup =
        List.sort_uniq
          (fun (a : R.t) (b : R.t) -> compare (a.rank, a.seq) (b.rank, b.seq))
          records
      in
      (* Lenient: random function names are not in the layer signature
         tables, and the property is exactly that both wire formats make
         the store-level keep/skip decisions identically. *)
      let via fmt =
        with_temp_file
          (Codec.encode_format fmt ~nranks:4 dedup)
          (fun path -> E.of_file ~mode:Diag.Lenient path)
      in
      estores_equal (via Codec.Text) (via Codec.Binary))

let () =
  Alcotest.run "codec_v2"
    [
      ( "round trip",
        [
          Alcotest.test_case "binary round trip" `Quick test_round_trip;
          Alcotest.test_case "format detection" `Quick test_detects_formats;
          Alcotest.test_case "empty rank segment" `Quick
            test_empty_rank_segment;
          Alcotest.test_case "streaming file fold" `Quick test_fold_binary_file;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated footer (strict)" `Quick
            test_truncated_footer_strict;
          Alcotest.test_case "truncated footer (lenient salvage)" `Quick
            test_truncated_footer_lenient;
          Alcotest.test_case "corrupt CRC (strict)" `Quick
            test_corrupt_crc_strict;
          Alcotest.test_case "corrupt CRC (lenient)" `Quick
            test_corrupt_crc_lenient;
          Alcotest.test_case "unknown version (strict)" `Quick
            test_unknown_version_strict;
          Alcotest.test_case "unknown version (lenient)" `Quick
            test_unknown_version_lenient;
          Alcotest.test_case "truncated mid-segment (strict)" `Quick
            test_truncated_mid_segment_strict;
          Alcotest.test_case "counts read as negative" `Quick
            test_negative_counts;
          Alcotest.test_case "damaged segment and CRC (strict)" `Quick
            test_damaged_segment_strict;
          Alcotest.test_case "damaged segment and CRC (lenient)" `Quick
            test_damaged_segment_lenient;
        ] );
      ( "read fault",
        [
          Alcotest.test_case "one answer under codec.read data policies"
            `Quick test_faulted_file_one_answer;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_cross_format_estore ] );
    ]
