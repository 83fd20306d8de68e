(* The benchmark's own logic: percentile rule, quartiles, span self
   time, failure accounting and the BENCHMARK.json schema. *)

open Perfbench
module J = Vio_util.Json

let check_float = Alcotest.(check (float 1e-9))
let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let is_some = Alcotest.(check bool) in
  is_some "p90 of 99 samples" false (Stats.percentile_checked 90. (floats 99) <> None);
  is_some "p90 of 100 samples" true (Stats.percentile_checked 90. (floats 100) <> None);
  is_some "p50 of 19 samples" false (Stats.percentile_checked 50. (floats 19) <> None);
  is_some "p50 of 20 samples" true (Stats.percentile_checked 50. (floats 20) <> None);
  is_some "no samples" false (Stats.percentile_checked 50. [] <> None);
  check_float "p90 interpolates" 90.1 (Stats.percentile 90. (floats 100));
  check_float "median of even count" 5.5 (Stats.median (floats 10))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (floats 10) in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3;
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, _, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  check_float "q1 of 3" 1. q1;
  check_float "q3 of 3" 3. q3;
  check_float "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread (floats 10))

let test_self_time () =
  let t = Spans.create () in
  let root = Spans.add t ~req:0 "request" ~t0:0. ~t1:10. in
  (* Overlapping children count once; one pokes out past the parent. *)
  let a = Spans.add t ~parent:root ~req:0 "a" ~t0:1. ~t1:3. in
  ignore (Spans.add t ~parent:root ~req:0 "b" ~t0:2. ~t1:5.);
  ignore (Spans.add t ~parent:root ~req:0 "c" ~t0:9. ~t1:12.);
  ignore (Spans.add t ~parent:a ~req:0 "a.inner" ~t0:1.5 ~t1:2.);
  let all = Spans.spans t in
  let span id = List.find (fun (s : Spans.span) -> s.Spans.id = id) all in
  check_float "root self" 5. (Spans.self_time all (span root));
  check_float "child self excludes grandchild" 1.5 (Spans.self_time all (span a));
  let self = Spans.self_times all in
  check_float "summed per name" 5. (List.assoc "request" self);
  check_float "leaf" 0.5 (List.assoc "a.inner" self)

let test_nested_spans () =
  let t = Spans.create () in
  let v =
    Spans.with_span t ~req:7 "outer" (fun () ->
        Spans.with_span t "inner" (fun () -> Spans.with_span t "leaf" (fun () -> 42)))
  in
  Alcotest.(check int) "value passes through" 42 v;
  let all = Spans.spans t in
  let by name = List.find (fun (s : Spans.span) -> s.Spans.name = name) all in
  Alcotest.(check (option int)) "inner's parent" (Some (by "outer").Spans.id) (by "inner").Spans.parent;
  Alcotest.(check int) "request id inherited" 7 (by "leaf").Spans.req;
  let outer = by "outer" in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. (Spans.self_times all) in
  Alcotest.(check (float 1e-6)) "self times add up to the root" (outer.Spans.t1 -. outer.Spans.t0) total;
  (* A raising thunk still closes its span. *)
  (try Spans.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "raised span recorded" true
    (List.exists (fun (s : Spans.span) -> s.Spans.name = "boom" && s.Spans.parent = None) (Spans.spans t))

let response status ~exit =
  {
    Serve.Spool.r_id = "j"; r_status = status; r_exit = exit; r_cached = false;
    r_wall_ms = 1; r_attempts = 1; r_error = None; r_verdicts = [];
  }

let test_failed_share () =
  let kinds =
    [
      ("refused", Outcome.of_response (response "overloaded" ~exit:8));
      ("timed out", Outcome.of_response (response "timed_out" ~exit:6));
      ("quarantined", Outcome.of_response (response "quarantined" ~exit:7));
      ("out of budget", Outcome.of_response (response "done" ~exit:6));
      ("wrong verdict", Outcome.Wrong_verdict "x");
      ("raised", Outcome.Raised "x");
    ]
  in
  List.iter
    (fun (name, o) ->
      let t = Outcome.tally [ Outcome.Ok; Outcome.Ok; Outcome.Ok; o ] in
      check_float name 0.25 (Outcome.failed_share t))
    kinds;
  Alcotest.(check bool) "done is ok" false (Outcome.failed (Outcome.of_response (response "done" ~exit:2)));
  Alcotest.(check bool) "rejected is refused" true
    (Outcome.of_response (response "rejected" ~exit:2) = Outcome.Refused);
  check_float "empty run" 0. (Outcome.failed_share (Outcome.tally []))

(* A done response is checked against the fresh verdict documents. *)
let test_response_check () =
  let item = { Inputs.file = "t.vtb"; program = "p"; scale = 1; nranks = 2; records = 0 } in
  let doc races = J.Obj [ ("model", J.Str "POSIX"); ("races", J.Int races) ] in
  let e =
    {
      Client.e_check = Outcome.Ok;
      e_kept = { Verif.k_item = item; k_racy = []; k_digest = Digest.string "" };
      e_docs = [ ("POSIX", Serve.Cache.render (doc 0)) ];
    }
  in
  let answer ?(status = "done") races =
    { (response status ~exit:0) with Serve.Spool.r_verdicts = [ ("POSIX", doc races) ] }
  in
  let outcome = Alcotest.testable (Fmt.of_to_string Outcome.describe) ( = ) in
  Alcotest.check outcome "same documents" Outcome.Ok (Client.response_outcome e (answer 0));
  Alcotest.(check bool) "stale document" true
    (match Client.response_outcome e (answer 1) with Outcome.Wrong_verdict _ -> true | _ -> false);
  Alcotest.check outcome "fresh verdict's own check" (Outcome.Wrong_verdict "tag")
    (Client.response_outcome { e with Client.e_check = Outcome.Wrong_verdict "tag" } (answer 0));
  Alcotest.check outcome "quarantined, not compared" Outcome.Quarantined
    (Client.response_outcome e (answer ~status:"quarantined" 1))

let bench_json = Filename.concat Filename.parent_dir_name "BENCHMARK.json"

let test_schema_round_trip () =
  match Schema.load bench_json with
  | Error e -> Alcotest.fail e
  | Ok s -> (
    let text = J.to_string (Schema.to_json s) in
    match Result.bind (J.of_string text) Schema.of_json with
    | Ok s' -> Alcotest.(check bool) "parse . emit = id" true (s = s')
    | Error e -> Alcotest.fail e)

let test_schema_rejects () =
  let s = Result.get_ok (Schema.load bench_json) in
  let bad name t =
    Alcotest.(check bool) name true (Result.is_error (Schema.of_json (Schema.to_json t)))
  in
  let e2e f = { s with Schema.end_to_end = List.map f s.Schema.end_to_end } in
  bad "bound above 0.25" (e2e (fun m -> { m with Schema.bound = Some 0.3 }));
  bad "no setup_s"
    { s with Schema.end_to_end = List.filter (fun m -> m.Schema.name <> "setup_s") s.Schema.end_to_end };
  bad "duplicate name" { s with Schema.per_layer = s.Schema.per_layer @ [ List.hd s.Schema.per_layer ] };
  bad "one workload" { s with Schema.workloads = [ List.hd s.Schema.workloads ] };
  bad "path out of the repo" { s with Schema.paths = [ "../x" ] };
  bad "bad unit" (e2e (fun m -> { m with Schema.unit_ = "m s" }));
  Alcotest.(check bool) "extra key" true
    (match Schema.to_json s with
    | J.Obj f -> Result.is_error (Schema.of_json (J.Obj (("extra", J.Null) :: f)))
    | _ -> false)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_nested_spans;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "failed share" `Quick test_failed_share;
          Alcotest.test_case "daemon response check" `Quick test_response_check;
        ] );
      ( "schema",
        [
          Alcotest.test_case "round trip" `Quick test_schema_round_trip;
          Alcotest.test_case "limits" `Quick test_schema_rejects;
        ] );
    ]
