(* The five happens-before engines (paper S:IV-D plus an interval index
   for high rank counts) on one workload.

   All five — vector clocks, memoized graph reachability, transitive
   closure, the on-the-fly search, and the per-rank interval index —
   implement the same relation; they differ in where they spend time
   (precomputation vs per-query work). This example verifies the
   `testphdf5` workload with each engine, checks the verdicts coincide,
   and prints the stage timings so the trade-off is visible.

   Run with: dune exec examples/engines_comparison.exe *)

module V = Verifyio

let () =
  let w =
    match Workloads.Registry.find "testphdf5" with
    | Some w -> w
    | None -> failwith "testphdf5 workload missing"
  in
  let records = Workloads.Harness.run ~scale:2 w in
  let nranks = w.Workloads.Harness.nranks in
  Printf.printf "workload %s: %d trace records\n\n" w.Workloads.Harness.name
    (List.length records);
  Printf.printf "%-20s %-10s %-12s %-12s %-10s\n" "engine" "races"
    "prepare (s)" "verify (s)" "ps checks";
  print_endline (String.make 70 '-');
  let baseline = ref None in
  List.iter
    (fun engine ->
      let o =
        V.Pipeline.verify_prepared ~model:V.Model.mpi_io
          (V.Pipeline.prepare ~engine ~nranks records)
      in
      let races =
        List.map
          (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
          o.V.Pipeline.races
      in
      (match !baseline with
      | None -> baseline := Some races
      | Some b -> assert (b = races));
      Printf.printf "%-20s %-10d %-12.4f %-12.4f %-10d\n"
        (V.Reach.engine_name engine)
        o.V.Pipeline.race_count o.V.Pipeline.timings.V.Pipeline.t_engine
        o.V.Pipeline.timings.V.Pipeline.t_verify
        o.V.Pipeline.stats.V.Verify.ps_checks)
    V.Reach.all_engines;
  print_endline
    "\nAll five engines report identical data races (asserted above).\n\
     Vector clocks pay one topological pass and answer queries in O(1);\n\
     transitive closure pays O(V^2) bits; the on-the-fly engine skips\n\
     preparation entirely and searches per query; the interval index\n\
     labels per-rank chains with suffix intervals for O(1) queries."
