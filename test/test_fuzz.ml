(* Tests for the differential fuzzing subsystem: generator determinism,
   the mutation smoke check (an intentionally broken engine must be
   caught and shrunk to a small repro), oracle/pipeline agreement on
   fresh seeds, and replay of the committed corpus. *)

module W = Viogen.Workload
module D = Viogen.Diff
module V = Verifyio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Handle values (fds, MPI-IO handles) come from process-global counters,
   so two in-process runs of one program differ in raw args/ret. The
   deterministic skeleton is the per-rank call sequence. *)
let skeleton records =
  List.map
    (fun (r : Recorder.Record.t) ->
      (r.Recorder.Record.rank, r.Recorder.Record.seq, r.Recorder.Record.func))
    records

let test_generate_deterministic () =
  for seed = 1 to 10 do
    let p1 = W.generate ~seed () in
    let p2 = W.generate ~seed () in
    check_bool (Printf.sprintf "seed %d: same program" seed) true (p1 = p2)
  done

let test_run_deterministic () =
  let p = W.generate ~seed:13 () in
  let r1 = W.run p in
  let r2 = W.run p in
  check_bool "same call skeleton" true (skeleton r1 = skeleton r2);
  check_int "same record count" (List.length r1) (List.length r2)

let test_programs_nontrivial () =
  (* The generator must routinely produce conflicting accesses — a fuzzer
     whose programs never conflict tests nothing. *)
  let with_conflicts = ref 0 in
  for seed = 1 to 30 do
    let p = W.generate ~seed () in
    let d = V.Estore.of_records ~nranks:p.W.nranks (W.run p) in
    if V.Oracle.conflict_pairs d <> [] then incr with_conflicts
  done;
  check_bool
    (Printf.sprintf "%d/30 seeds produce conflict pairs" !with_conflicts)
    true
    (!with_conflicts >= 10)

let test_fresh_seeds_agree () =
  for seed = 1 to 25 do
    let divs = D.check_program (W.generate ~seed ()) in
    check_int (Printf.sprintf "seed %d: no divergence" seed) 0
      (List.length divs)
  done

(* The acceptance smoke check: break one engine on purpose, confirm the
   differential harness catches it and shrinks the witness program to a
   small repro that still triggers — and that is clean without the
   mutation. *)
let test_mutation_caught_and_shrunk () =
  let mutation =
    { D.target = "engine:vector-clock"; rewrite = (fun _ -> []) }
  in
  (* Seed 41's program has oracle races under three models, so an engine
     that reports none must diverge. *)
  let p = W.generate ~seed:41 () in
  check_int "clean without mutation" 0 (List.length (D.check_program p));
  let divs = D.check_program ~mutation p in
  check_bool "mutation caught" true (divs <> []);
  List.iter
    (fun (d : D.divergence) ->
      check_bool "only the broken subject diverges" true
        (d.D.subject = "engine:vector-clock"))
    divs;
  let interesting q = D.check_program ~mutation q <> [] in
  let shrunk = D.shrink ~interesting p in
  check_bool "shrunk repro has at most 10 steps" true
    (List.length shrunk.W.steps <= 10);
  check_bool "shrunk repro still diverges under mutation" true
    (interesting shrunk);
  check_int "shrunk repro is clean without mutation" 0
    (List.length (D.check_program shrunk))

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let p = W.generate ~seed:5 () in
  let interesting _ =
    incr calls;
    true
  in
  ignore (D.shrink ~budget:7 ~interesting p);
  check_bool "at most budget evaluations" true (!calls <= 7)

let test_subject_names () =
  let names = D.subject_names in
  check_int "5 engines + sequential + shared" 7 (List.length names);
  check_bool "interval-index is a subject" true
    (List.mem "engine:interval-index" names)

let test_corpus_replays_clean () =
  let dir = "fuzz_corpus" in
  let traces =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".vio-trace")
    |> List.sort compare
  in
  check_bool "corpus is non-empty" true (List.length traces >= 5);
  List.iter
    (fun f ->
      let { Recorder.Codec.nranks; records; _ } =
        Recorder.Codec.decode_ext
          (Recorder.Codec.read_file (Filename.concat dir f))
      in
      let divs =
        D.check ~oracle:(V.Oracle.verify ~nranks records) ~nranks records
      in
      check_int (f ^ ": no divergence") 0 (List.length divs))
    traces

(* seed41.vio-trace is the witness for the read/write pruning-split fix in
   Verify.run (rules 2/4 once used one boundary op for both access kinds);
   pin its oracle verdict so the regression stays visible. *)
let test_seed41_regression () =
  let { Recorder.Codec.nranks; records; _ } =
    Recorder.Codec.decode_ext
      (Recorder.Codec.read_file "fuzz_corpus/seed41.vio-trace")
  in
  let by_model =
    V.Oracle.verify ~nranks records
    |> List.map (fun ((m : V.Model.t), (v : V.Oracle.verdict)) ->
           (m.V.Model.name, List.length v.V.Oracle.races))
  in
  check_bool "POSIX clean, Commit/Session/MPI-IO racy" true
    (by_model
    = [ ("POSIX", 0); ("Commit", 2); ("Session", 2); ("MPI-IO", 2) ]);
  check_int "optimized paths agree" 0
    (List.length
       (D.check ~oracle:(V.Oracle.verify ~nranks records) ~nranks records))

(* The committed model witnesses: shrunk Extended-profile traces that
   flip verdict across one lattice edge — racy under the stronger model,
   clean under the implied one. Pinned so the regression stays visible. *)
let test_model_witnesses () =
  let pin file strong weak =
    let { Recorder.Codec.nranks; records; _ } =
      Recorder.Codec.decode_ext (Recorder.Codec.read_file ("fuzz_corpus/" ^ file))
    in
    let races name =
      match V.Model.by_name name with
      | Some m ->
        (V.Pipeline.verify_prepared ~model:m (V.Pipeline.prepare ~nranks records))
          .V.Pipeline.races
      | None -> Alcotest.fail ("registry lost " ^ name)
    in
    check_bool (file ^ " racy under " ^ strong) true (races strong <> []);
    check_bool (file ^ " clean under " ^ weak) true (races weak = []);
    check_int (file ^ " all subjects agree") 0
      (List.length
         (D.check
            ~oracle:(V.Oracle.verify ~models:(V.Model.all ()) ~nranks records)
            ~nranks records))
  in
  pin "model_c2o_vs_session.vio-trace" "c2o" "session";
  pin "model_commit_ps_vs_commit.vio-trace" "commit-ps" "commit"

let prop_random_programs_agree =
  QCheck2.Test.make ~name:"random programs: all subjects match the oracle"
    ~count:15
    QCheck2.Gen.(int_range 1000 9999)
    (fun seed ->
      D.check_program (W.generate ~seed ()) = [])

(* The lattice order is a semantic theorem, not just a syntactic check on
   MSCs: whenever [Model.implies m1 m2], every race reported under m2 is
   also reported under m1 (equivalently, a trace properly synchronized
   under the stronger discipline stays properly synchronized under every
   implied one). Checked across the whole registry on Extended-profile
   programs, under every reach engine. *)
let prop_lattice_monotone =
  let engines =
    [
      V.Reach.Vector_clock; V.Reach.Bfs_memo; V.Reach.Transitive_closure;
      V.Reach.On_the_fly; V.Reach.Interval_index;
    ]
  in
  let models = V.Model.all () in
  QCheck2.Test.make
    ~name:"lattice: implies m1 m2 => races(m2) <= races(m1), all engines"
    ~count:12
    QCheck2.Gen.(int_range 20000 29999)
    (fun seed ->
      let p = W.generate ~profile:W.Extended ~seed () in
      let records = W.run p in
      let nranks = p.W.nranks in
      List.for_all
        (fun engine ->
          let prepared = V.Pipeline.prepare ~engine ~nranks records in
          let verdicts =
            List.map
              (fun m ->
                ( m,
                  List.sort_uniq compare
                    (List.map
                       (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
                       (V.Pipeline.verify_prepared ~model:m prepared)
                         .V.Pipeline.races) ))
              models
          in
          List.for_all
            (fun (m1, r1) ->
              List.for_all
                (fun (m2, r2) ->
                  m1 == m2
                  || (not (V.Model.implies m1 m2))
                  || List.for_all (fun pair -> List.mem pair r1) r2)
                verdicts)
            verdicts)
        engines)

(* The indexed MSC search decides each pair from one sync per rank per
   step; the oracle tries every op of the trace at every step. They must
   agree on every ordered pair of same-file data ops — conflicting or
   not, same rank or not — under every registered model and a "Fence"
   model whose opaque predicates match sync ops of any file. *)
let fence =
  let any tag =
    V.Model.opaque_pred ~name:"any" (fun d i ~fid:_ ->
        V.Estore.kind_tag d i = tag)
  in
  V.Model.make ~name:"Fence" ~sync_set:[ "any_sync"; "any_close"; "any_open" ]
    ~msc_desc:"-hb-> any_sync -hb-> | -po-> any_close -hb-> any_open -po->"
    ~mscs:
      [
        { V.Model.edges = [ V.Model.Hb; V.Model.Hb ];
          syncs = [ any V.Estore.tag_sync ] };
        { V.Model.edges = [ V.Model.Po; V.Model.Hb; V.Model.Po ];
          syncs = [ any V.Estore.tag_close; any V.Estore.tag_open ] };
      ]
    ()

let prop_msc_matches_oracle =
  QCheck2.Test.make ~name:"indexed MSC search = oracle MSC search, every pair"
    ~count:6 ~long_factor:5
    ~print:(fun (seed, nranks, extended) ->
      Printf.sprintf "seed %d, %d ranks, %s" seed nranks
        (if extended then "Extended" else "Classic"))
    QCheck2.Gen.(triple (int_range 1 99999) (int_range 2 16) bool)
    (fun (seed, nranks, extended) ->
      let profile = if extended then W.Extended else W.Classic in
      let p = W.generate ~profile ~nranks ~seed () in
      let d = V.Estore.of_records ~nranks (W.run p) in
      let g = V.Hb_graph.build d (V.Match_mpi.run d) in
      let sidx = V.Msc.build_index d in
      let datas =
        List.filter (V.Estore.is_data d) (List.init (V.Estore.length d) Fun.id)
      in
      let pairs =
        List.concat_map
          (fun x ->
            List.filter_map
              (fun y ->
                if x <> y && V.Estore.fid d x = V.Estore.fid d y then
                  Some (x, y)
                else None)
              datas)
          datas
      in
      let engines = [ V.Reach.Vector_clock; V.Reach.Interval_index ] in
      List.for_all
        (fun model ->
          let expected =
            List.map
              (fun (x, y) -> V.Oracle.properly_synchronized model g d ~x ~y)
              pairs
          in
          List.for_all
            (fun engine ->
              let ps =
                V.Msc.properly_synchronized model (V.Reach.create engine g) sidx
              in
              List.for_all2
                (fun (x, y) want ->
                  ps ~x ~y = want
                  || QCheck2.Test.fail_reportf "%s, %s: ps %d %d should be %b"
                       model.V.Model.name (V.Reach.engine_name engine) x y want)
                pairs expected)
            engines)
        (V.Model.all () @ [ fence ]))

(* Verify.run's bookkeeping (the pair memo, the race set and the
   per-kind boundary ops) against a reference built from the groups
   alone: every distinct conflict pair x < y where neither
   properly-synchronized direction holds, tagged by the confidence rule
   and sorted by (rx, ry). *)
let reference_races ~degraded ~partial model reach sidx groups =
  let ps = V.Msc.properly_synchronized model reach sidx in
  let pairs =
    List.concat_map
      (fun (g : V.Conflict.group) ->
        List.concat_map
          (fun (_rank, ys) ->
            List.map
              (fun y -> (min g.V.Conflict.x y, max g.V.Conflict.x y))
              (Array.to_list ys))
          g.V.Conflict.peers)
      groups
    |> List.sort_uniq compare
  in
  let races =
    List.filter_map
      (fun (x, y) ->
        if ps ~x ~y || ps ~x:y ~y:x then None
        else
          let confidence =
            if degraded x || degraded y then V.Verify.Under_degradation
            else if partial x || partial y then V.Verify.Under_partial_order
            else V.Verify.Definite
          in
          Some { V.Verify.rx = x; ry = y; confidence })
      pairs
  in
  (races, List.length pairs)

let show races =
  let tag = function
    | V.Verify.Definite -> ""
    | V.Verify.Under_partial_order -> "p"
    | V.Verify.Under_degradation -> "g"
  in
  String.concat " "
    (List.map
       (fun (r : V.Verify.race) ->
         Printf.sprintf "%d-%d%s" r.V.Verify.rx r.V.Verify.ry
           (tag r.V.Verify.confidence))
       races)

(* Runs Verify.run on one program under every registered model and the
   opaque-predicate Fence model, with pruning on and off, both with no
   degradation and with seeded synthetic [degraded] and [partial]
   predicates. Fails on the first disagreement with the reference and
   returns the most ps checks any one run made. *)
let verify_matches_reference ~seed ~profile ?nranks ?max_steps () =
  let p = W.generate ~profile ?nranks ?max_steps ~seed () in
  let d = V.Estore.of_records ~nranks:p.W.nranks (W.run p) in
  let groups = V.Conflict.detect d in
  let reach =
    V.Reach.create V.Reach.Vector_clock
      (V.Hb_graph.build d (V.Match_mpi.run d))
  in
  let sidx = V.Msc.build_index d in
  let marked salt i = Hashtbl.hash (seed, salt, i) mod 4 = 0 in
  let never _ = false in
  let predicates =
    [
      ("no degradation", never, never);
      ("synthetic degradation", marked 1, marked 2);
    ]
  in
  let max_checks = ref 0 in
  List.iter
    (fun model ->
      List.iter
        (fun (label, degraded, partial) ->
          let want, pairs =
            reference_races ~degraded ~partial model reach sidx groups
          in
          List.iter
            (fun pruning ->
              let races, stats =
                V.Verify.run ~pruning ~degraded ~partial model reach sidx d
                  groups
              in
              let where =
                Printf.sprintf "seed %d, %s, pruning %b, %s" seed
                  model.V.Model.name pruning label
              in
              if races <> want then
                QCheck2.Test.fail_reportf "%s:@ got %s@ reference %s" where
                  (show races) (show want);
              if stats.V.Verify.pairs <> pairs then
                QCheck2.Test.fail_reportf "%s: stats.pairs %d, reference %d"
                  where stats.V.Verify.pairs pairs;
              max_checks := max !max_checks stats.V.Verify.ps_checks)
            [ true; false ])
        predicates)
    (V.Model.all () @ [ fence ]);
  !max_checks

let prop_verify_matches_reference =
  QCheck2.Test.make ~name:"Verify.run = reference race set, every model"
    ~count:10 ~long_factor:5
    ~print:(fun (seed, extended) ->
      Printf.sprintf "seed %d, %s" seed
        (if extended then "Extended" else "Classic"))
    QCheck2.Gen.(pair (int_range 1 99999) bool)
    (fun (seed, extended) ->
      let profile = if extended then W.Extended else W.Classic in
      ignore (verify_matches_reference ~seed ~profile ());
      true)

(* The memo starts at 256 slots and doubles once it holds more than
   128 entries; this program makes one run check 1,000 or more pairs,
   so the reference comparison covers a memo that has grown. *)
let test_verify_reference_grown_memo () =
  let checks =
    verify_matches_reference ~seed:3 ~profile:W.Extended ~nranks:16
      ~max_steps:80 ()
  in
  check_bool
    (Printf.sprintf "one run made %d ps checks, at least 1000 wanted" checks)
    true (checks >= 1000)

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "generate deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "programs nontrivial" `Quick
            test_programs_nontrivial;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fresh seeds agree" `Quick test_fresh_seeds_agree;
          Alcotest.test_case "mutation caught and shrunk" `Quick
            test_mutation_caught_and_shrunk;
          Alcotest.test_case "shrink budget" `Quick test_shrink_respects_budget;
          Alcotest.test_case "subject names" `Quick test_subject_names;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replays clean" `Quick test_corpus_replays_clean;
          Alcotest.test_case "seed 41 pruning regression" `Quick
            test_seed41_regression;
          Alcotest.test_case "model witnesses pinned" `Quick
            test_model_witnesses;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_programs_agree;
          QCheck_alcotest.to_alcotest prop_lattice_monotone;
          QCheck_alcotest.to_alcotest prop_msc_matches_oracle;
          QCheck_alcotest.to_alcotest prop_verify_matches_reference;
        ] );
      ( "verify",
        [
          Alcotest.test_case "reference with a grown memo" `Quick
            test_verify_reference_grown_memo;
        ] );
    ]
