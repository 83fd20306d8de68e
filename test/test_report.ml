(* Tests for reporting (call-chain race grouping, summaries) and the
   dynamic engine selection heuristic. *)

module V = Verifyio
module H = Workloads.Harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let outcome_of ?scale name model =
  let w = Option.get (Workloads.Registry.find name) in
  let records = H.run ?scale w in
  V.Pipeline.verify_prepared ~model (V.Pipeline.prepare ~nranks:w.H.nranks records)

(* ------------------------------------------------------------------ *)
(* Race grouping                                                        *)
(* ------------------------------------------------------------------ *)

let test_group_races_dedups_chains () =
  (* pmulti_dset: many datasets, all racing through the same two code
     paths — grouping must collapse them to a handful of chain pairs. *)
  let o = outcome_of ~scale:2 "pmulti_dset" V.Model.mpi_io in
  let groups = V.Report.group_races o in
  check_bool "many races" true (o.V.Pipeline.race_count > 50);
  check_bool "few chain pairs" true (List.length groups <= 4);
  let total = List.fold_left (fun a g -> a + g.V.Report.rg_count) 0 groups in
  check_int "group counts partition the races" o.V.Pipeline.race_count total;
  (* Sorted by descending count. *)
  let rec descending = function
    | a :: (b :: _ as rest) ->
      a.V.Report.rg_count >= b.V.Report.rg_count && descending rest
    | _ -> true
  in
  check_bool "sorted" true (descending groups)

let test_group_orientation_canonical () =
  let o = outcome_of "shapesame" V.Model.session in
  let groups = V.Report.group_races o in
  List.iter
    (fun g -> check_bool "canonical order" true (g.V.Report.rg_chain_x <= g.V.Report.rg_chain_y))
    groups

let test_grouped_report_renders () =
  let o = outcome_of "flexible" V.Model.mpi_io in
  let report = V.Report.grouped_report o in
  check_bool "names enddef" true (contains report "ncmpi_enddef");
  check_bool "names the put" true (contains report "ncmpi_put_vara");
  check_bool "has counts" true (contains report "x  app");
  check_bool "mentions distinct pairs" true (contains report "distinct call-chain")

let test_no_races_empty_groups () =
  let o = outcome_of "t_pread" V.Model.mpi_io in
  check_int "no groups" 0 (List.length (V.Report.group_races o))

let test_summary_line () =
  let o = outcome_of "tst_parallel5" V.Model.posix in
  let line = V.Report.summary_line ~name:"tst_parallel5" o in
  check_bool "has name" true (contains line "tst_parallel5");
  check_bool "has model" true (contains line "POSIX");
  check_bool "has races" true (contains line "races=")

(* ------------------------------------------------------------------ *)
(* Dynamic engine selection                                             *)
(* ------------------------------------------------------------------ *)

let test_recommend_heuristic () =
  Alcotest.(check bool)
    "no conflicts -> on-the-fly" true
    (V.Reach.recommend ~nranks:4 ~graph_nodes:100000 ~conflict_pairs:0
    = V.Reach.On_the_fly);
  Alcotest.(check bool)
    "small graph, heavy queries -> closure" true
    (V.Reach.recommend ~nranks:4 ~graph_nodes:1000 ~conflict_pairs:5000
    = V.Reach.Transitive_closure);
  Alcotest.(check bool)
    "large graph -> vector clock" true
    (V.Reach.recommend ~nranks:4 ~graph_nodes:100000 ~conflict_pairs:5000
    = V.Reach.Vector_clock);
  Alcotest.(check bool)
    "few queries on small graph -> vector clock" true
    (V.Reach.recommend ~nranks:4 ~graph_nodes:1000 ~conflict_pairs:10
    = V.Reach.Vector_clock);
  Alcotest.(check bool)
    "64+ ranks -> interval index" true
    (V.Reach.recommend ~nranks:64 ~graph_nodes:100000 ~conflict_pairs:5000
    = V.Reach.Interval_index)

let test_pipeline_auto_selection () =
  (* A conflict-free workload should auto-select the no-precomputation
     engine; the verdict must match an explicit vector-clock run. *)
  let w = Option.get (Workloads.Registry.find "t_pread") in
  let records = H.run w in
  let auto =
    V.Pipeline.verify_prepared ~model:V.Model.posix
      (V.Pipeline.prepare ~nranks:w.H.nranks records)
  in
  check_bool "auto picked on-the-fly for zero conflicts" true
    (auto.V.Pipeline.engine_used = V.Reach.On_the_fly);
  let explicit =
    V.Pipeline.verify_prepared ~model:V.Model.posix
      (V.Pipeline.prepare ~engine:V.Reach.Vector_clock ~nranks:w.H.nranks records)
  in
  check_bool "explicit choice respected" true
    (explicit.V.Pipeline.engine_used = V.Reach.Vector_clock);
  check_int "same verdict" explicit.V.Pipeline.race_count
    auto.V.Pipeline.race_count

let test_auto_matches_explicit_on_racy_workload () =
  let w = Option.get (Workloads.Registry.find "testphdf5") in
  let records = H.run w in
  let races o =
    List.map
      (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
      o.V.Pipeline.races
  in
  let auto =
    V.Pipeline.verify_prepared ~model:V.Model.mpi_io
      (V.Pipeline.prepare ~nranks:w.H.nranks records)
  in
  let vc =
    V.Pipeline.verify_prepared ~model:V.Model.mpi_io
      (V.Pipeline.prepare ~engine:V.Reach.Vector_clock ~nranks:w.H.nranks records)
  in
  Alcotest.(check (list (pair int int)))
    "identical races" (races vc) (races auto)

let () =
  Alcotest.run "report"
    [
      ( "grouping",
        [
          Alcotest.test_case "dedups chains" `Quick test_group_races_dedups_chains;
          Alcotest.test_case "canonical orientation" `Quick
            test_group_orientation_canonical;
          Alcotest.test_case "renders" `Quick test_grouped_report_renders;
          Alcotest.test_case "empty" `Quick test_no_races_empty_groups;
          Alcotest.test_case "summary line" `Quick test_summary_line;
        ] );
      ( "auto-engine",
        [
          Alcotest.test_case "heuristic" `Quick test_recommend_heuristic;
          Alcotest.test_case "pipeline auto" `Quick test_pipeline_auto_selection;
          Alcotest.test_case "auto = explicit" `Quick
            test_auto_matches_explicit_on_racy_workload;
        ] );
    ]
