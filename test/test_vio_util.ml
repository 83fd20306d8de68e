(* Tests for the utility library: intervals, bitsets, tables, stats and
   growable buffers. *)

module I = Vio_util.Interval
module B = Vio_util.Bitset
module T = Vio_util.Table
module S = Vio_util.Stats
module G = Vio_util.Growbuf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Intervals                                                            *)
(* ------------------------------------------------------------------ *)

let ival os oe = I.make ~os ~oe

let test_interval_basics () =
  let t = ival 4 10 in
  check_int "length" 6 (I.length t);
  check_bool "not empty" false (I.is_empty t);
  check_bool "empty" true (I.is_empty (ival 5 5));
  check_bool "contains start" true (I.contains t 4);
  check_bool "excludes end" false (I.contains t 10);
  check_string "printing" "[4,10)" (I.to_string t)

let test_interval_validation () =
  Alcotest.check_raises "negative start"
    (Invalid_argument "Interval.make: negative start") (fun () ->
      ignore (ival (-1) 3));
  Alcotest.check_raises "inverted"
    (Invalid_argument "Interval.make: end before start") (fun () ->
      ignore (ival 5 2));
  Alcotest.check_raises "negative len"
    (Invalid_argument "Interval.of_len: negative length") (fun () ->
      ignore (I.of_len ~off:0 ~len:(-4)))

let test_overlap_cases () =
  let t = ival 10 20 in
  check_bool "disjoint left" false (I.overlaps t (ival 0 10));
  check_bool "disjoint right" false (I.overlaps t (ival 20 30));
  check_bool "touching boundaries do not overlap" false
    (I.overlaps (ival 0 10) (ival 10 20));
  check_bool "partial left" true (I.overlaps t (ival 5 11));
  check_bool "partial right" true (I.overlaps t (ival 19 25));
  check_bool "contained" true (I.overlaps t (ival 12 15));
  check_bool "containing" true (I.overlaps t (ival 0 100));
  check_bool "empty never overlaps" false (I.overlaps t (ival 15 15))

let test_intersect_union () =
  (match I.intersect (ival 0 10) (ival 5 20) with
  | Some x ->
    check_int "inter start" 5 x.I.os;
    check_int "inter end" 10 x.I.oe
  | None -> Alcotest.fail "expected intersection");
  check_bool "disjoint intersect" true
    (I.intersect (ival 0 5) (ival 5 9) = None);
  let h = I.union_hull (ival 0 3) (ival 10 12) in
  check_int "hull start" 0 h.I.os;
  check_int "hull end" 12 h.I.oe

let test_coalesce () =
  let input = [ ival 10 20; ival 0 5; ival 4 8; ival 19 25; ival 30 30 ] in
  let out = I.coalesce input in
  Alcotest.(check (list string))
    "merged" [ "[0,8)"; "[10,25)" ]
    (List.map I.to_string out);
  check_int "covered bytes" 23 (I.total_covered input)

let prop_coalesce_preserves_coverage =
  QCheck2.Test.make ~name:"coalesce preserves per-byte coverage" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (pair (int_range 0 50) (int_range 0 10)))
    (fun pairs ->
      let ivs = List.map (fun (off, len) -> I.of_len ~off ~len) pairs in
      let covered l x = List.exists (fun t -> I.contains t x) l in
      let out = I.coalesce ivs in
      let ok = ref true in
      for x = 0 to 70 do
        if covered ivs x <> covered out x then ok := false
      done;
      (* Output must also be sorted and pairwise disjoint. *)
      let rec disjoint_sorted = function
        | a :: (b :: _ as rest) ->
          a.I.oe < b.I.os && disjoint_sorted rest
        | _ -> true
      in
      !ok && disjoint_sorted out)

(* ------------------------------------------------------------------ *)
(* Bitsets                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basics () =
  let b = B.create 100 in
  check_int "universe" 100 (B.length b);
  check_bool "initially clear" false (B.mem b 42);
  B.set b 42;
  B.set b 0;
  B.set b 99;
  check_bool "set" true (B.mem b 42);
  check_int "cardinal" 3 (B.cardinal b);
  B.clear b 42;
  check_bool "cleared" false (B.mem b 42);
  check_int "cardinal after clear" 2 (B.cardinal b)

let test_bitset_bounds () =
  let b = B.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> B.set b (-1));
  Alcotest.check_raises "past end" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (B.mem b 8))

let test_bitset_union () =
  let a = B.create 20 and b = B.create 20 in
  B.set a 1;
  B.set a 5;
  B.set b 5;
  B.set b 17;
  B.union_into ~dst:a ~src:b;
  let got = ref [] in
  B.iter (fun i -> got := i :: !got) a;
  Alcotest.(check (list int)) "union" [ 1; 5; 17 ] (List.rev !got);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Bitset.union_into: size mismatch") (fun () ->
      B.union_into ~dst:a ~src:(B.create 8))

let test_bitset_copy_independent () =
  let a = B.create 10 in
  B.set a 3;
  let c = B.copy a in
  B.set a 4;
  check_bool "copy has 3" true (B.mem c 3);
  check_bool "copy lacks 4" false (B.mem c 4);
  check_bool "equal after same mutation" true
    (B.set c 4;
     B.equal a c)

let prop_bitset_matches_model =
  QCheck2.Test.make ~name:"bitset behaves like a bool array" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 64)
        (list_size (int_range 0 40) (pair bool (int_range 0 63))))
    (fun (n, ops) ->
      let b = B.create n in
      let model = Array.make n false in
      List.iter
        (fun (is_set, idx) ->
          let idx = idx mod n in
          if is_set then begin
            B.set b idx;
            model.(idx) <- true
          end
          else begin
            B.clear b idx;
            model.(idx) <- false
          end)
        ops;
      let ok = ref true in
      Array.iteri (fun i v -> if B.mem b i <> v then ok := false) model;
      !ok && B.cardinal b = Array.fold_left (fun a v -> if v then a + 1 else a) 0 model)

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_table_render () =
  let t = T.create ~headers:[ "name"; "count" ] in
  T.set_aligns t [ T.Left; T.Right ];
  T.add_row t [ "alpha"; "1" ];
  T.add_row t [ "b"; "100" ];
  let s = T.render t in
  check_bool "has header" true (contains_substring s "| name  | count |");
  check_bool "right aligned" true (contains_substring s "|     1 |")

let test_table_errors () =
  let t = T.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      T.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_basics () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (S.mean xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (S.median xs);
  Alcotest.(check (float 1e-6)) "stddev" 1.290994 (S.stddev xs);
  Alcotest.(check (float 1e-9)) "min" 1. (S.minimum xs);
  Alcotest.(check (float 1e-9)) "max" 4. (S.maximum xs);
  Alcotest.(check (float 1e-9)) "p0" 1. (S.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 4. (S.percentile xs 100.)

let test_stats_degenerate () =
  Alcotest.(check (float 1e-9)) "mean empty" 0. (S.mean [||]);
  Alcotest.(check (float 1e-9)) "stddev single" 0. (S.stddev [| 7. |]);
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (S.percentile [||] 50.))

(* ------------------------------------------------------------------ *)
(* Growbuf                                                              *)
(* ------------------------------------------------------------------ *)

let test_growbuf_write_read () =
  let g = G.create () in
  check_int "empty size" 0 (G.size g);
  G.write_string g ~off:0 "hello";
  check_int "size" 5 (G.size g);
  check_string "read back" "hello" (G.read_string g ~off:0 ~len:5);
  check_string "short read" "llo" (G.read_string g ~off:2 ~len:100);
  check_string "read past eof" "" (G.read_string g ~off:10 ~len:4)

let test_growbuf_holes () =
  let g = G.create () in
  G.write_string g ~off:100 "x";
  check_int "hole extends size" 101 (G.size g);
  check_string "hole reads zero" "\000\000\000" (G.read_string g ~off:50 ~len:3)

let test_growbuf_truncate () =
  let g = G.create () in
  G.write_string g ~off:0 "abcdef";
  G.truncate g 3;
  check_int "shrunk" 3 (G.size g);
  G.truncate g 6;
  check_string "re-extended tail is zero" "abc\000\000\000"
    (G.read_string g ~off:0 ~len:6)

let test_growbuf_copy_blit () =
  let g = G.create () in
  G.write_string g ~off:0 "source";
  let c = G.copy g in
  G.write_string g ~off:0 "mutate";
  check_string "copy unaffected" "source" (G.contents c);
  let d = G.create () in
  G.write_string d ~off:0 "longer-than-source";
  G.blit_from ~src:c ~dst:d;
  check_string "blit replaces" "source" (G.contents d)

let prop_growbuf_matches_model =
  QCheck2.Test.make ~name:"growbuf write/read matches a byte-array model"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (pair (int_range 0 60) (string_size ~gen:(char_range 'a' 'z') (int_range 1 10))))
    (fun writes ->
      let g = G.create () in
      let model = Bytes.make 200 '\000' in
      let eof = ref 0 in
      List.iter
        (fun (off, s) ->
          G.write_string g ~off s;
          Bytes.blit_string s 0 model off (String.length s);
          eof := max !eof (off + String.length s))
        writes;
      G.contents g = Bytes.sub_string model 0 !eof)

(* ------------------------------------------------------------------ *)
(* Sha256                                                               *)
(* ------------------------------------------------------------------ *)

module Sha = Vio_util.Sha256

(* FIPS 180-4 test vectors. *)
let test_sha256_vectors () =
  check_string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha.digest_string "");
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha.digest_string "abc");
  check_string "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha.digest_string (String.make 1_000_000 'a'))

let prop_sha256_chunking_irrelevant =
  QCheck2.Test.make
    ~name:"sha256: chunked feeding matches the one-shot digest" ~count:100
    QCheck2.Gen.(
      pair (string_size ~gen:(char_range '\000' '\255') (int_range 0 300))
        (list_size (int_range 0 8) (int_range 1 64)))
    (fun (s, cuts) ->
      let ctx = Sha.init () in
      let off = ref 0 in
      List.iter
        (fun len ->
          let len = min len (String.length s - !off) in
          if len > 0 then begin
            Sha.feed ctx ~off:!off ~len s;
            off := !off + len
          end)
        cuts;
      if !off < String.length s then
        Sha.feed ctx ~off:!off ~len:(String.length s - !off) s;
      Sha.hex ctx = Sha.digest_string s)

let test_sha256_file () =
  let path = Filename.temp_file "sha" ".bin" in
  let oc = open_out_bin path in
  output_string oc "abc";
  close_out oc;
  check_string "file digest = string digest"
    (Sha.digest_string "abc") (Sha.digest_file path);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Fsio                                                                 *)
(* ------------------------------------------------------------------ *)

module Fsio = Vio_util.Fsio

let test_fsio_atomic_write () =
  let dir = Filename.temp_file "fsio" "" in
  Sys.remove dir;
  Fsio.ensure_dir (Filename.concat dir "a/b");
  check_bool "mkdir -p" true (Sys.is_directory (Filename.concat dir "a/b"));
  let path = Filename.concat dir "a/b/x.json" in
  Fsio.atomic_write ~path "one";
  check_string "write" "one" (Fsio.read_file path);
  Fsio.atomic_write ~path "two";
  check_string "overwrite" "two" (Fsio.read_file path);
  Alcotest.(check (list string))
    "listing" [ "x.json" ]
    (Fsio.files_with_suffix (Filename.concat dir "a/b") ~suffix:".json");
  Alcotest.(check (list string))
    "missing dir lists empty" []
    (Fsio.files_with_suffix (Filename.concat dir "nope") ~suffix:".json")

let test_fsio_sweep_tmp () =
  let dir = Filename.temp_file "fsio" "" in
  Sys.remove dir;
  Fsio.ensure_dir dir;
  Fsio.atomic_write ~path:(Filename.concat dir "keep.json") "k";
  let oc = open_out (Filename.concat dir "keep.json.tmp.999.1") in
  close_out oc;
  check_int "one staging file removed" 1 (Fsio.sweep_tmp dir);
  Alcotest.(check (list string))
    "staging debris removed" [ "keep.json" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Backoff                                                              *)
(* ------------------------------------------------------------------ *)

module Backoff = Vio_util.Backoff

let test_backoff_delays () =
  check_int "attempt 1" 50 (Backoff.delay_ms ~base_ms:50 ~attempt:1 ());
  check_int "attempt 2" 100 (Backoff.delay_ms ~base_ms:50 ~attempt:2 ());
  check_int "attempt 4" 400 (Backoff.delay_ms ~base_ms:50 ~attempt:4 ());
  check_int "capped" 30_000 (Backoff.delay_ms ~base_ms:50 ~attempt:30 ());
  check_int "custom cap" 250
    (Backoff.delay_ms ~cap_ms:250 ~base_ms:100 ~attempt:5 ());
  check_int "zero base disables" 0 (Backoff.delay_ms ~base_ms:0 ~attempt:9 ())

let draw_jitter ?cap_ms ~base_ms ~seed n =
  let j = Backoff.jitter ?cap_ms ~base_ms ~seed () in
  List.init n (fun _ -> Backoff.jitter_ms j)

let test_backoff_jitter_basics () =
  let a = draw_jitter ~cap_ms:500 ~base_ms:10 ~seed:1 64 in
  let b = draw_jitter ~cap_ms:500 ~base_ms:10 ~seed:1 64 in
  check_bool "fixed seed reproduces the stream" true (a = b);
  let c = draw_jitter ~cap_ms:500 ~base_ms:10 ~seed:2 64 in
  check_bool "different seeds decorrelate" true (a <> c);
  check_bool "zero base yields zero delays" true
    (List.for_all (( = ) 0) (draw_jitter ~base_ms:0 ~seed:7 32));
  check_bool "cap below base clamps to base" true
    (List.for_all (( = ) 20) (draw_jitter ~cap_ms:5 ~base_ms:20 ~seed:3 32));
  Alcotest.check_raises "negative base rejected"
    (Invalid_argument "Backoff.jitter: negative base") (fun () ->
      ignore (Backoff.jitter ~base_ms:(-1) ~seed:0 ()))

(* The decorrelated-jitter contract: every delay lands in
   [base_ms, max base_ms cap_ms] and the stream is a pure function of
   (seed, base_ms, cap_ms). *)
let prop_jitter_bounded_deterministic =
  QCheck2.Test.make
    ~name:"backoff: jitter stays in [base, cap] and replays under its seed"
    ~count:200
    QCheck2.Gen.(
      triple (int_range 0 50) (int_range 0 200) (int_range 0 10_000))
    (fun (base_ms, extra, seed) ->
      let cap_ms = base_ms + extra in
      let hi = max base_ms cap_ms in
      let a = draw_jitter ~cap_ms ~base_ms ~seed 100 in
      let b = draw_jitter ~cap_ms ~base_ms ~seed 100 in
      a = b && List.for_all (fun d -> d >= base_ms && d <= hi) a)

(* ------------------------------------------------------------------ *)
(* Failpoint fabric                                                     *)
(* ------------------------------------------------------------------ *)

module F = Vio_util.Failpoint

let test_failpoint_disabled_noop () =
  F.clear ();
  check_bool "disabled after clear" false (F.enabled ());
  List.iter (fun (site, _) -> F.hit site) F.known_sites;
  check_int "hit on disabled fabric counts nothing" 0 (F.hit_count "codec.read");
  check_int "adjust_len is the identity when off" 4096
    (F.adjust_len "fsio.append" 4096);
  check_bool "bitflip draws nothing when off" true
    (F.bitflip "codec.read" ~len:64 = None)

let test_failpoint_spec_parse () =
  F.clear ();
  (match
     F.configure
       "codec.read=fail@3;fsio.fsync=prob:0.5:7;batch.worker=delay:1;\
        fsio.append=short:16;cache.store=bitflip:9"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  check_bool "enabled after configure" true (F.enabled ());
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "unknown site rejected" true (is_err (F.configure "nope=fail"));
  check_bool "missing '=' rejected" true (is_err (F.configure "codec.read"));
  check_bool "unknown policy rejected" true
    (is_err (F.configure "codec.read=explode"));
  check_bool "bad count rejected" true (is_err (F.configure "codec.read=fail@x"));
  check_bool "bad probability rejected" true
    (is_err (F.configure "fsio.fsync=prob:1.5"));
  (* A rejected spec must not disturb the installed configuration:
     configure parses the whole spec before touching the table. *)
  check_bool "failed configure keeps the previous fabric" true (F.enabled ());
  F.clear ();
  check_bool "clear disables" false (F.enabled ())

let test_failpoint_fail_at_n () =
  F.clear ();
  F.set ~site:"codec.read" (F.Fail 3);
  F.hit "codec.read";
  F.hit "codec.read";
  (match F.hit "codec.read" with
  | () -> Alcotest.fail "third hit did not fire"
  | exception F.Injected { site; hit } ->
    check_string "site" "codec.read" site;
    check_int "hit number" 3 hit);
  F.hit "codec.read";
  check_int "fires exactly once" 4 (F.hit_count "codec.read");
  Alcotest.check_raises "unknown site rejected by set"
    (Invalid_argument "Failpoint.set: unknown site \"nope\"") (fun () ->
      F.set ~site:"nope" (F.Fail 1));
  F.clear ()

let test_failpoint_prob_deterministic () =
  F.clear ();
  let record () =
    F.set ~site:"fsio.fsync" (F.Fail_prob (0.5, 42));
    List.init 100 (fun _ ->
        match F.hit "fsio.fsync" with
        | () -> false
        | exception F.Injected _ -> true)
  in
  let a = record () in
  let b = record () in
  check_bool "same seed replays the same fault pattern" true (a = b);
  check_bool "p=0.5 actually fires" true (List.mem true a);
  check_bool "p=0.5 actually passes" true (List.mem false a);
  F.set ~site:"fsio.fsync" (F.Fail_prob (0.5, 43));
  let c =
    List.init 100 (fun _ ->
        match F.hit "fsio.fsync" with
        | () -> false
        | exception F.Injected _ -> true)
  in
  check_bool "different seed decorrelates" true (a <> c);
  F.clear ()

let test_failpoint_short_and_bitflip () =
  F.clear ();
  F.set ~site:"fsio.append" (F.Short_io 4);
  check_int "long write clamped" 4 (F.adjust_len "fsio.append" 100);
  check_int "short write untouched" 2 (F.adjust_len "fsio.append" 2);
  F.set ~site:"codec.read" (F.Bitflip 5);
  let b1 = F.bitflip "codec.read" ~len:32 in
  (match b1 with
  | Some (byte, bit) ->
    check_bool "one bit inside the buffer" true
      (byte >= 0 && byte < 32 && bit >= 0 && bit < 8)
  | None -> Alcotest.fail "bitflip drew no bit");
  check_int "the draw counts as a hit" 1 (F.hit_count "codec.read");
  check_bool "an empty buffer has no bit to flip" true
    (F.bitflip "codec.read" ~len:0 = None);
  F.set ~site:"codec.read" (F.Bitflip 5);
  check_bool "same seed flips the same bit on the same hit" true
    (F.bitflip "codec.read" ~len:32 = b1);
  F.clear ()

(* ------------------------------------------------------------------ *)
(* Json: parser and emit → parse round trip                             *)
(* ------------------------------------------------------------------ *)

module J = Vio_util.Json

let test_json_parse_basics () =
  check_bool "null" true (J.of_string "null" = Ok J.Null);
  check_bool "int" true (J.of_string " 42 " = Ok (J.Int 42));
  check_bool "negative" true (J.of_string "-7" = Ok (J.Int (-7)));
  check_bool "float" true (J.of_string "1.5" = Ok (J.Float 1.5));
  check_bool "string" true (J.of_string {|"a\nb"|} = Ok (J.Str "a\nb"));
  check_bool "escape u" true
    (J.of_string "\"\\u0001\"" = Ok (J.Str "\001"));
  check_bool "surrogate pair" true
    (J.of_string "\"\\ud83d\\ude00\"" = Ok (J.Str "\xf0\x9f\x98\x80"));
  check_bool "list" true
    (J.of_string "[1,true,null]" = Ok (J.List [ J.Int 1; J.Bool true; J.Null ]));
  check_bool "nested obj" true
    (J.of_string {|{"a":{"b":[]}}|}
    = Ok (J.Obj [ ("a", J.Obj [ ("b", J.List []) ]) ]))

let test_json_parse_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "empty" true (is_err (J.of_string ""));
  check_bool "torn string" true (is_err (J.of_string {|{"a": "tor|}));
  check_bool "trailing garbage" true (is_err (J.of_string "1 2"));
  check_bool "bare word" true (is_err (J.of_string "verdict"));
  check_bool "unclosed obj" true (is_err (J.of_string {|{"a":1|}))

let test_json_accessors () =
  let doc = J.Obj [ ("n", J.Int 3); ("s", J.Str "x"); ("b", J.Bool true) ] in
  check_bool "member+to_int" true
    (Option.bind (J.member "n" doc) J.to_int = Some 3);
  check_bool "member miss" true (J.member "z" doc = None);
  check_bool "to_str" true
    (Option.bind (J.member "s" doc) J.to_str = Some "x");
  check_bool "to_bool" true
    (Option.bind (J.member "b" doc) J.to_bool = Some true)

(* Documents without floats round-trip exactly (floats render in %.6g,
   which is deliberately lossy). Strings cover the full byte range:
   control characters must survive via \uXXXX escaping. *)
let json_doc_gen =
  let open QCheck2.Gen in
  let any_string = string_size ~gen:(char_range '\000' '\255') (int_range 0 12) in
  let key = string_size ~gen:(char_range '\000' '\255') (int_range 0 6) in
  sized_size (int_range 0 3) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            return J.Null;
            map (fun b -> J.Bool b) bool;
            map (fun i -> J.Int i) (int_range (-1_000_000) 1_000_000);
            map (fun s -> J.Str s) any_string;
          ]
      else
        oneof
          [
            map (fun l -> J.List l) (list_size (int_range 0 4) (self (n - 1)));
            map
              (fun kvs -> J.Obj kvs)
              (list_size (int_range 0 4) (pair key (self (n - 1))));
          ])

let prop_json_round_trip =
  QCheck2.Test.make ~name:"json: emit then parse is the identity" ~count:500
    json_doc_gen
    (fun doc ->
      J.of_string (J.to_string doc) = Ok doc
      && J.of_string (J.to_string ~indent:0 doc) = Ok doc)

(* ------------------------------------------------------------------ *)
(* Budget deadlines                                                     *)
(* ------------------------------------------------------------------ *)

module Bu = Vio_util.Budget

let test_budget_deadline () =
  (* A 1 ms deadline has certainly passed after a 5 ms sleep; steps are
     far from exhausted, so the deadline must be what fires. *)
  let b = Bu.create ~timeout_ms:1 1_000_000 in
  Backoff.sleep_ms 5;
  (match Bu.spend b ~stage:"verify" 1 with
  | () -> Alcotest.fail "deadline did not fire"
  | exception Bu.Deadline_exceeded { stage; timeout_ms; elapsed_ms } ->
    check_string "stage" "verify" stage;
    check_int "timeout" 1 timeout_ms;
    check_bool "elapsed >= timeout" true (elapsed_ms >= 1));
  let t = Bu.timer ~timeout_ms:60_000 () in
  Bu.spend t ~stage:"any" 1_000_000;
  check_bool "timer never step-exhausts" true (not (Bu.exhausted t));
  Alcotest.check_raises "steps still win over deadline"
    (Bu.Exhausted { stage = "s"; limit = 1; used = 2 })
    (fun () ->
      let b = Bu.create ~timeout_ms:1 1 in
      Backoff.sleep_ms 5;
      Bu.spend b ~stage:"s" 2);
  check_bool "describe deadline" true
    (Bu.describe
       (Bu.Deadline_exceeded
          { stage = "s"; timeout_ms = 10; elapsed_ms = 12 })
    <> None)

(* ------------------------------------------------------------------ *)
(* Intsort                                                              *)
(* ------------------------------------------------------------------ *)

(* Key arrays shaped to hit every path of the sort: random keys over a
   narrow range (many ties), long runs of one key, presorted rank-chain
   style runs, descending input, and lengths 0 and 1. *)
let gen_keys =
  let open QCheck2.Gen in
  let len = oneof [ return 0; return 1; int_range 2 40; int_range 40 2000 ] in
  let of_list l = return (Array.of_list l) in
  oneof
    [
      (len >>= fun n -> list_repeat n (int_range 0 5) >>= of_list);
      (len >>= fun n -> list_repeat n (int_range (-1000) 1000) >>= of_list);
      ( len >>= fun n ->
        int_range 1 50 >>= fun run ->
        int_range 0 3 >>= fun k ->
        return (Array.init n (fun i -> (i / run) mod (k + 1))) );
      (len >>= fun n -> return (Array.init n (fun i -> n - i)));
      (len >>= fun n -> return (Array.init n (fun i -> (n - i) / 7)));
      ( len >>= fun n ->
        int_range 1 8 >>= fun chains ->
        list_repeat n (int_range 0 3) >>= fun steps ->
        (* [chains] runs, each non-decreasing, laid end to end. *)
        let steps = Array.of_list steps in
        let per = max 1 (n / chains) in
        return
          (Array.init n (fun i ->
               if i mod per = 0 then steps.(i) else steps.(i) + i - (i mod per))) );
    ]

let prop_intsort_order =
  QCheck2.Test.make ~name:"Intsort.order = Array.stable_sort on indices"
    ~count:500 gen_keys (fun keys ->
      let want = Array.init (Array.length keys) Fun.id in
      Array.stable_sort (fun i j -> compare keys.(i) keys.(j)) want;
      let before = Array.copy keys in
      let got = Vio_util.Intsort.order keys in
      got = want && keys = before)

let prop_intsort_sort =
  QCheck2.Test.make ~name:"Intsort.sort = Array.stable_sort" ~count:500
    gen_keys (fun keys ->
      let want = Array.copy keys in
      Array.stable_sort compare want;
      Vio_util.Intsort.sort keys;
      keys = want)

let () =
  Alcotest.run "vio_util"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "validation" `Quick test_interval_validation;
          Alcotest.test_case "overlap cases" `Quick test_overlap_cases;
          Alcotest.test_case "intersect/union" `Quick test_intersect_union;
          Alcotest.test_case "coalesce" `Quick test_coalesce;
          QCheck_alcotest.to_alcotest prop_coalesce_preserves_coverage;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "union" `Quick test_bitset_union;
          Alcotest.test_case "copy independence" `Quick
            test_bitset_copy_independent;
          QCheck_alcotest.to_alcotest prop_bitset_matches_model;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "errors" `Quick test_table_errors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "degenerate" `Quick test_stats_degenerate;
        ] );
      ( "growbuf",
        [
          Alcotest.test_case "write/read" `Quick test_growbuf_write_read;
          Alcotest.test_case "holes" `Quick test_growbuf_holes;
          Alcotest.test_case "truncate" `Quick test_growbuf_truncate;
          Alcotest.test_case "copy/blit" `Quick test_growbuf_copy_blit;
          QCheck_alcotest.to_alcotest prop_growbuf_matches_model;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS 180-4 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "file digest" `Quick test_sha256_file;
          QCheck_alcotest.to_alcotest prop_sha256_chunking_irrelevant;
        ] );
      ( "fsio",
        [
          Alcotest.test_case "atomic write" `Quick test_fsio_atomic_write;
          Alcotest.test_case "sweep tmp" `Quick test_fsio_sweep_tmp;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "delay schedule" `Quick test_backoff_delays;
          Alcotest.test_case "decorrelated jitter" `Quick
            test_backoff_jitter_basics;
          QCheck_alcotest.to_alcotest prop_jitter_bounded_deterministic;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "disabled fabric is a no-op" `Quick
            test_failpoint_disabled_noop;
          Alcotest.test_case "spec parsing" `Quick test_failpoint_spec_parse;
          Alcotest.test_case "fail@N fires exactly once" `Quick
            test_failpoint_fail_at_n;
          Alcotest.test_case "prob is seed-deterministic" `Quick
            test_failpoint_prob_deterministic;
          Alcotest.test_case "short/bitflip" `Quick
            test_failpoint_short_and_bitflip;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
        ] );
      ( "budget",
        [ Alcotest.test_case "wall-clock deadline" `Quick test_budget_deadline ] );
      ( "intsort",
        [
          QCheck_alcotest.to_alcotest prop_intsort_order;
          QCheck_alcotest.to_alcotest prop_intsort_sort;
        ] );
    ]
