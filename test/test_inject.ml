(* Resilience tests: the fault injector, lenient decoding, and graceful
   pipeline degradation. The core properties mirror the design contract:

   - injection at rate 0 (or an empty plan) is the identity, and lenient
     decoding of a pristine trace is bit-identical to strict decoding;
   - for ANY plan and seed, the lenient pipeline never raises and reports
     at least as many diagnostics as faults were injected;
   - the codec survives truncation at every byte boundary in lenient
     mode;
   - a simulated rank crash yields a trace the lenient pipeline digests,
     surfacing the damage instead of aborting. *)

module R = Recorder.Record
module T = Recorder.Trace
module Codec = Recorder.Codec
module D = Recorder.Diagnostic
module Inject = Recorder.Inject
module W = Workloads.Harness
module V = Verifyio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A small mixed workload trace used as injection target. *)
let sample_trace () =
  let w = Option.get (Workloads.Registry.find "t_pread") in
  let records = W.run w in
  (w.W.nranks, Codec.encode ~nranks:w.W.nranks records)

let full_plan rate =
  List.map (fun kind -> { Inject.kind; rate }) Inject.all_kinds

(* ------------------------------------------------------------------ *)
(* Plan parsing                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_parsing () =
  (match Inject.plan_of_string "drop:0.01,truncate:0.3" with
  | Ok [ a; b ] ->
    check_bool "kinds" true
      (a.Inject.kind = Inject.Drop_record && b.Inject.kind = Inject.Truncate_tail);
    check_bool "rates" true (a.Inject.rate = 0.01 && b.Inject.rate = 0.3)
  | _ -> Alcotest.fail "expected a two-spec plan");
  (match Inject.plan_of_string "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty string is the empty plan");
  List.iter
    (fun bad ->
      match Inject.plan_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad))
    [ "nope:0.1"; "drop"; "drop:1.5"; "drop:-0.1"; "drop:x" ];
  (* Round trip through the printer. *)
  let plan = full_plan 0.25 in
  match Inject.plan_of_string (Inject.plan_to_string plan) with
  | Ok p -> check_bool "printer round trip" true (p = plan)
  | Error e -> Alcotest.fail e

let test_kind_names () =
  List.iter
    (fun k ->
      match Inject.kind_of_string (Inject.kind_to_string k) with
      | Some k' -> check_bool "kind round trip" true (k = k')
      | None -> Alcotest.fail "kind name did not round trip")
    Inject.all_kinds

(* ------------------------------------------------------------------ *)
(* Injection basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_rate_zero_is_identity () =
  let _, encoded = sample_trace () in
  let out, events = Inject.apply (full_plan 0.0) ~seed:7 encoded in
  check_string "bit-identical" encoded out;
  check_int "no events" 0 (List.length events);
  let out, events = Inject.apply [] ~seed:7 encoded in
  check_string "empty plan identity" encoded out;
  check_int "no events either" 0 (List.length events)

let test_injection_deterministic () =
  let _, encoded = sample_trace () in
  let plan = full_plan 0.2 in
  let out1, ev1 = Inject.apply plan ~seed:42 encoded in
  let out2, ev2 = Inject.apply plan ~seed:42 encoded in
  check_string "same bytes" out1 out2;
  check_bool "same events" true (ev1 = ev2);
  let out3, _ = Inject.apply plan ~seed:43 encoded in
  check_bool "different seed, different trace" true (out1 <> out3)

(* ------------------------------------------------------------------ *)
(* Lenient decode properties                                            *)
(* ------------------------------------------------------------------ *)

let test_lenient_equals_strict_on_pristine () =
  let _, encoded = sample_trace () in
  let strict = Codec.decode_ext encoded in
  let lenient = Codec.decode_ext ~mode:D.Lenient encoded in
  check_int "same nranks" strict.Codec.nranks lenient.Codec.nranks;
  check_bool "same records" true (strict.Codec.records = lenient.Codec.records);
  check_int "no diagnostics" 0 (List.length lenient.Codec.diagnostics)

(* Every injected fault must be independently detectable: lenient decode +
   pipeline reports at least one diagnostic per fault event. *)
let prop_faults_all_detected =
  QCheck2.Test.make ~count:30 ~name:"every injected fault yields a diagnostic"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 5))
    (fun (seed, which) ->
      let nranks, encoded = sample_trace () in
      let kind = List.nth Inject.all_kinds which in
      let plan = [ { Inject.kind; rate = 0.15 } ] in
      let faulted, events = Inject.apply plan ~seed encoded in
      let dec = Codec.decode_ext ~mode:D.Lenient faulted in
      let o =
        V.Pipeline.verify_prepared ~model:V.Model.posix
          (V.Pipeline.prepare ~mode:D.Lenient ~upstream:dec.Codec.diagnostics
             ~nranks:dec.Codec.nranks dec.Codec.records)
      in
      ignore nranks;
      List.length o.V.Pipeline.degradation.V.Pipeline.diagnostics
      >= List.length events)

let prop_lenient_pipeline_never_raises =
  QCheck2.Test.make ~count:40 ~name:"lenient pipeline never raises"
    QCheck2.Gen.(
      pair (int_range 1 100_000)
        (list_size (int_range 1 6) (float_range 0.0 0.4)))
    (fun (seed, rates) ->
      let _, encoded = sample_trace () in
      let plan =
        List.mapi
          (fun i rate ->
            { Inject.kind = List.nth Inject.all_kinds (i mod 6); rate })
          rates
      in
      let faulted, _ = Inject.apply plan ~seed encoded in
      let dec = Codec.decode_ext ~mode:D.Lenient faulted in
      let o =
        V.Pipeline.verify_prepared ~model:V.Model.mpi_io
          (V.Pipeline.prepare ~mode:D.Lenient ~upstream:dec.Codec.diagnostics
             ~nranks:dec.Codec.nranks dec.Codec.records)
      in
      o.V.Pipeline.race_count >= 0)

let prop_truncation_at_every_boundary =
  QCheck2.Test.make ~count:60
    ~name:"lenient decode survives truncation at any byte"
    QCheck2.Gen.(float_range 0.0 1.0)
    (fun frac ->
      let _, encoded = sample_trace () in
      let cut = int_of_float (frac *. float_of_int (String.length encoded)) in
      let cut = max 0 (min (String.length encoded - 1) cut) in
      let truncated = String.sub encoded 0 cut in
      let dec = Codec.decode_ext ~mode:D.Lenient truncated in
      (* Whatever survived must decode to a well-formed record list. *)
      List.for_all (fun (r : R.t) -> r.R.rank >= 0) dec.Codec.records)

let test_truncation_every_boundary_exhaustive () =
  (* The qcheck property samples; pin the edges and a dense sweep of a
     small trace exhaustively. *)
  let t = T.create ~nranks:1 in
  ignore
    (T.intercept t ~rank:0 ~layer:R.Posix ~func:"open"
       ~args:[| "/f"; "O_CREAT|O_RDWR" |] ~ret:string_of_int (fun () -> 3));
  ignore
    (T.intercept t ~rank:0 ~layer:R.Posix ~func:"pwrite"
       ~args:[| "3"; "8"; "0" |] ~ret:string_of_int (fun () -> 8));
  let encoded = Codec.encode ~nranks:1 (T.records t) in
  for cut = 0 to String.length encoded - 1 do
    let dec = Codec.decode_ext ~mode:D.Lenient (String.sub encoded 0 cut) in
    check_bool "records bounded" true (List.length dec.Codec.records <= 2)
  done

(* A cut inside the last record line's last token can leave a shorter
   line that still parses: "... 1 15" cut to "... 1 1" names dictionary
   entry 1 where the record named entry 15. Strict decode must refuse the
   unterminated line (docs/format.md §5.5); lenient decode must drop it
   and report it lost, not return a different record. *)
let test_cut_last_token () =
  let mk seq func call_path =
    {
      R.rank = 0;
      seq;
      tstart = seq;
      tend = seq + 1;
      layer = R.Posix;
      func;
      args = [||];
      ret = "0";
      call_path;
    }
  in
  let records =
    List.init 16 (fun k -> mk k (Printf.sprintf "f%02d" k) [])
    @ [ mk 16 "unlink" [ (R.Posix, "f15") ] ]
  in
  let encoded = Codec.encode ~nranks:1 records in
  check_bool "last line ends in entry 15" true
    (String.ends_with ~suffix:" 1 15\n" encoded);
  let cut = String.sub encoded 0 (String.length encoded - 2) in
  (match Codec.decode_ext cut with
  | _ -> Alcotest.fail "strict decode accepted a cut last line"
  | exception Codec.Malformed { reason; record; _ } ->
    check_bool ("cites format.md \xc2\xa75.5: " ^ reason) true
      (String.ends_with ~suffix:"(format.md \xc2\xa75.5)" reason);
    check_int "names the last record" 17 record);
  let dec = Codec.decode_ext ~mode:D.Lenient cut in
  check_int "cut record dropped" 16 (List.length dec.Codec.records);
  check_bool "no record names entry 1 instead" true
    (List.for_all (fun (r : R.t) -> r.R.call_path = []) dec.Codec.records);
  check_int "reported lost once" 1
    (D.count_class D.Truncated_trace dec.Codec.diagnostics);
  check_int "nothing else reported" 1 (List.length dec.Codec.diagnostics);
  (* With no record count to check against, the drop is reported itself. *)
  let headerless =
    String.concat "\n"
      (List.filter
         (fun l -> not (String.starts_with ~prefix:"records " l))
         (String.split_on_char '\n' cut))
  in
  let dec = Codec.decode_ext ~mode:D.Lenient headerless in
  check_int "headerless: cut record dropped" 16 (List.length dec.Codec.records);
  check_int "headerless: reported lost" 1
    (D.count_class D.Truncated_trace dec.Codec.diagnostics);
  (* A trace that ends in its newline loses nothing. *)
  check_int "whole trace intact" 17
    (List.length (Codec.decode_ext ~mode:D.Lenient encoded).Codec.records)

(* ------------------------------------------------------------------ *)
(* Verdict confidence                                                   *)
(* ------------------------------------------------------------------ *)

let test_degraded_races_tagged () =
  (* A racy workload, decoded leniently with faults: every surviving race
     verdict must carry a confidence tag; with faults present and any
     global degradation, races are Under_degradation. *)
  let w = Option.get (Workloads.Registry.find "tst_parallel5") in
  let records = W.run w in
  let encoded = Codec.encode ~nranks:w.W.nranks records in
  let o_clean =
    V.Pipeline.verify_prepared ~model:V.Model.mpi_io
      (V.Pipeline.prepare ~mode:D.Lenient ~nranks:w.W.nranks records)
  in
  check_bool "clean lenient run has definite races only" true
    (List.for_all
       (fun (r : V.Verify.race) -> r.V.Verify.confidence = V.Verify.Definite)
       o_clean.V.Pipeline.races);
  let faulted, events =
    Inject.apply [ { Inject.kind = Inject.Drop_record; rate = 0.2 } ] ~seed:11
      encoded
  in
  check_bool "some faults injected" true (events <> []);
  let dec = Codec.decode_ext ~mode:D.Lenient faulted in
  let o =
    V.Pipeline.verify_prepared ~model:V.Model.mpi_io
      (V.Pipeline.prepare ~mode:D.Lenient ~upstream:dec.Codec.diagnostics
         ~nranks:dec.Codec.nranks dec.Codec.records)
  in
  check_bool "degradation recorded" true (V.Pipeline.is_degraded o);
  check_bool "surviving races degraded" true
    (List.for_all
       (fun (r : V.Verify.race) ->
         r.V.Verify.confidence = V.Verify.Under_degradation)
       o.V.Pipeline.races)

(* ------------------------------------------------------------------ *)
(* Organic degradation: rank aborts                                     *)
(* ------------------------------------------------------------------ *)

let test_abort_rank_degrades_gracefully () =
  let w = Option.get (Workloads.Registry.find "put_vara_int") in
  let records = W.run ~abort_rank:(1, 2) w in
  check_bool "trace has in-flight records" true
    (List.exists (fun (r : R.t) -> r.R.ret = T.in_flight_ret) records);
  let o =
    V.Pipeline.verify_prepared ~model:V.Model.mpi_io
      (V.Pipeline.prepare ~mode:D.Lenient ~nranks:w.W.nranks records)
  in
  check_bool "pipeline survives" true (o.V.Pipeline.race_count >= 0);
  check_bool "epilogues reported missing" true
    (o.V.Pipeline.degradation.V.Pipeline.epilogues_missing > 0);
  (* The peers outran the dead rank: later collectives must surface as
     unmatched rather than aborting the pipeline. *)
  check_bool "unmatched collectives surfaced" true
    (List.exists
       (function
         | V.Match_mpi.Mismatched_collective { missing; _ } ->
           List.mem 1 missing
         | _ -> false)
       o.V.Pipeline.unmatched)

let test_abort_rank_deterministic () =
  (* Handle values (fds, ncids) come from process-global counters, so two
     in-process runs differ in the ids they hand out; the crash point and
     call structure must not. *)
  let shape (r : R.t) =
    (r.R.rank, r.R.seq, r.R.layer, r.R.func, r.R.ret = T.in_flight_ret)
  in
  let w = Option.get (Workloads.Registry.find "put_vara_int") in
  let r1 = W.run ~abort_rank:(1, 2) w in
  let r2 = W.run ~abort_rank:(1, 2) w in
  check_bool "same degraded shape" true
    (List.map shape r1 = List.map shape r2)

let () =
  Alcotest.run "inject"
    [
      ( "plans",
        [
          Alcotest.test_case "parsing" `Quick test_plan_parsing;
          Alcotest.test_case "kind names" `Quick test_kind_names;
        ] );
      ( "injection",
        [
          Alcotest.test_case "rate 0 identity" `Quick test_rate_zero_is_identity;
          Alcotest.test_case "deterministic" `Quick test_injection_deterministic;
        ] );
      ( "lenient-decode",
        [
          Alcotest.test_case "pristine = strict" `Quick
            test_lenient_equals_strict_on_pristine;
          Alcotest.test_case "exhaustive truncation" `Quick
            test_truncation_every_boundary_exhaustive;
          Alcotest.test_case "cut inside the last token" `Quick
            test_cut_last_token;
          QCheck_alcotest.to_alcotest prop_faults_all_detected;
          QCheck_alcotest.to_alcotest prop_lenient_pipeline_never_raises;
          QCheck_alcotest.to_alcotest prop_truncation_at_every_boundary;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "degraded races tagged" `Quick
            test_degraded_races_tagged;
          Alcotest.test_case "abort rank graceful" `Quick
            test_abort_rank_degrades_gracefully;
          Alcotest.test_case "abort deterministic" `Quick
            test_abort_rank_deterministic;
        ] );
    ]
