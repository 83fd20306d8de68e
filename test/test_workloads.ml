(* Integration tests over the full 91-test evaluation registry: every
   workload runs through the simulator and the verification pipeline, and
   its verdicts must match the paper-derived expectation tags. The
   aggregate counts reproduce Table III; the relaxed models must agree on
   every execution (the paper's §V-A observation). *)

module H = Workloads.Harness
module Reg = Workloads.Registry
module V = Verifyio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_registry_counts () =
  check_int "total" 91 (List.length Reg.all);
  List.iter
    (fun (lib, expected) ->
      check_int (H.library_name lib) expected
        (List.assoc lib (Reg.counts ())))
    [ (H.Hdf5, 15); (H.Netcdf, 17); (H.Pnetcdf, 59) ]

let test_unique_names () =
  let names = List.map (fun (w : H.t) -> w.H.name) Reg.all in
  check_int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Cache each workload's outcomes; several tests consume them. *)
let outcomes =
  lazy
    (List.map (fun (w : H.t) -> (w, H.verify w)) Reg.all)

let test_every_workload_matches_expectation () =
  List.iter
    (fun ((w : H.t), res) ->
      check_bool
        (Printf.sprintf "%s (%s) matches expectation" w.H.name
           (H.library_name w.H.library))
        true
        (H.matches_expectation w res))
    (Lazy.force outcomes)

let test_relaxed_models_agree () =
  (* Commit, Session and MPI-IO report the same verdict on every test
     execution — the observation the paper highlights in §V-A. *)
  List.iter
    (fun ((w : H.t), res) ->
      let verdict name =
        let _, o =
          List.find (fun ((m : V.Model.t), _) -> m.V.Model.name = name) res
        in
        o.V.Pipeline.races = []
      in
      let c = verdict "Commit" and s = verdict "Session" and m = verdict "MPI-IO" in
      check_bool (w.H.name ^ ": Commit = Session = MPI-IO") true
        (c = s && s = m))
    (Lazy.force outcomes)

let count_not_proper lib model_name =
  List.length
    (List.filter
       (fun ((w : H.t), res) ->
         w.H.library = lib
         && (not w.H.expect.H.exp_unmatched)
         &&
         let _, o =
           List.find
             (fun ((m : V.Model.t), _) -> m.V.Model.name = model_name)
             res
         in
         o.V.Pipeline.races <> [])
       (Lazy.force outcomes))

let test_table_iii_counts () =
  List.iter
    (fun (model, h5, nc, pn, total) ->
      let gh = count_not_proper H.Hdf5 model in
      let gn = count_not_proper H.Netcdf model in
      let gp = count_not_proper H.Pnetcdf model in
      check_int (model ^ " HDF5") h5 gh;
      check_int (model ^ " NetCDF") nc gn;
      check_int (model ^ " PnetCDF") pn gp;
      check_int (model ^ " total") total (gh + gn + gp))
    Reg.expected_table_iii

(* Golden race counts for every racy execution (our Fig. 4's non-green
   cells, POSIX / relaxed). Pinning exact values guards the whole stack —
   simulator scheduling, trace capture, offset reconstruction, matching,
   happens-before and MSC checking — against silent behavioural drift. *)
let golden_race_counts =
  [
    ("shapesame", 0, 48); ("testphdf5", 0, 72); ("cache", 0, 2);
    ("pmulti_dset", 0, 120); ("t_mpi", 6, 6); ("t_pflush1", 12, 12);
    ("t_filters_parallel", 18, 18);
    ("tst_nc4perf", 0, 32); ("tst_parallel3", 0, 8); ("tst_parallel4", 0, 12);
    ("tst_simplerw_coll_r", 0, 2); ("tst_mpi_parallel", 0, 8);
    ("tst_atts_par", 0, 2); ("tst_vars_par", 0, 16); ("tst_quantize_par", 0, 4);
    ("tst_parallel5", 2, 2);
    ("flexible", 0, 6); ("flexible2", 0, 12); ("flexible_varm", 0, 6);
    ("flexible_bottom", 0, 6); ("column_wise", 0, 3); ("block_cyclic", 0, 6);
    ("transpose", 0, 3); ("interleaved", 0, 8); ("one_record", 0, 2);
    ("pmulti_dser", 0, 32); ("null_args", 1, 1); ("test_erange", 2, 2);
  ]

let test_golden_race_counts () =
  let results = Lazy.force outcomes in
  List.iter
    (fun (name, posix_expected, relaxed_expected) ->
      match
        List.find_opt (fun ((w : H.t), _) -> w.H.name = name) results
      with
      | None -> Alcotest.fail ("missing workload " ^ name)
      | Some (_, res) ->
        let count model_name =
          let _, o =
            List.find
              (fun ((m : V.Model.t), _) -> m.V.Model.name = model_name)
              res
          in
          o.V.Pipeline.race_count
        in
        check_int (name ^ " POSIX races") posix_expected (count "POSIX");
        List.iter
          (fun m -> check_int (name ^ " " ^ m ^ " races") relaxed_expected (count m))
          [ "Commit"; "Session"; "MPI-IO" ])
    golden_race_counts

let test_gray_rows () =
  let grays =
    List.filter
      (fun ((_ : H.t), res) ->
        List.exists (fun (_, o) -> o.V.Pipeline.unmatched <> []) res)
      (Lazy.force outcomes)
  in
  check_int "three executions cannot complete verification" 3
    (List.length grays);
  let names = List.map (fun ((w : H.t), _) -> w.H.name) grays in
  List.iter
    (fun expected ->
      check_bool (expected ^ " is gray") true (List.mem expected names))
    [ "collective_error"; "i_varn_int64"; "bput_varn_uint" ]

let test_posix_races_are_subset_of_relaxed () =
  List.iter
    (fun ((w : H.t), res) ->
      let races name =
        let _, o =
          List.find (fun ((m : V.Model.t), _) -> m.V.Model.name = name) res
        in
        List.map
          (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
          o.V.Pipeline.races
      in
      let posix = races "POSIX" in
      List.iter
        (fun relaxed_name ->
          let relaxed = races relaxed_name in
          List.iter
            (fun p ->
              check_bool
                (Printf.sprintf "%s: POSIX race also under %s" w.H.name
                   relaxed_name)
                true (List.mem p relaxed))
            posix)
        [ "Commit"; "Session"; "MPI-IO" ])
    (Lazy.force outcomes)

let test_scaling_increases_conflicts () =
  (* Fig. 4's magnitudes: bigger executions of a racy pattern produce more
     conflicts and more races. *)
  match Reg.find "shapesame" with
  | None -> Alcotest.fail "shapesame missing"
  | Some w ->
    let at scale =
      let res = H.verify ~scale w in
      let _, o =
        List.find (fun ((m : V.Model.t), _) -> m.V.Model.name = "MPI-IO") res
      in
      (o.V.Pipeline.conflicts, o.V.Pipeline.race_count)
    in
    let c1, r1 = at 1 in
    let c2, r2 = at 2 in
    check_bool "conflicts grow" true (c2 > c1);
    check_bool "races grow" true (r2 > r1);
    check_bool "racy at scale 1" true (r1 > 0)

let test_trace_file_round_trip_preserves_verdicts () =
  (* Serialize each interesting workload's trace through the codec; the
     decoded trace must verify to the identical race set — the guarantee
     behind `verifyio run` + `verifyio verify <file>`. *)
  List.iter
    (fun name ->
      match Reg.find name with
      | None -> Alcotest.fail ("missing " ^ name)
      | Some w ->
        let records = H.run w in
        let encoded = Recorder.Codec.encode ~nranks:w.H.nranks records in
        let { Recorder.Codec.nranks = nranks'; records = decoded; _ } =
          Recorder.Codec.decode_ext encoded
        in
        check_int (name ^ ": nranks preserved") w.H.nranks nranks';
        List.iter
          (fun model ->
            let races rs =
              List.map
                (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
                (V.Pipeline.verify_prepared ~model
                   (V.Pipeline.prepare ~nranks:w.H.nranks rs))
                  .V.Pipeline.races
            in
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s/%s: saved trace verdict" name
                 model.V.Model.name)
              (races records) (races decoded))
          V.Model.builtin)
    [ "flexible"; "tst_parallel5"; "shapesame"; "null_args"; "i_varn_int64";
      "collective_error"; "pres_temp_4D_wr" ]

let test_deterministic_verdicts () =
  (* Running the same workload twice yields identical race sets. *)
  match Reg.find "tst_parallel5" with
  | None -> Alcotest.fail "tst_parallel5 missing"
  | Some w ->
    let run () =
      List.map
        (fun ((m : V.Model.t), o) ->
          ( m.V.Model.name,
            List.map
              (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
              o.V.Pipeline.races ))
        (H.verify w)
    in
    check_bool "identical runs" true (run () = run ())

(* Verify.run keeps its per-pair bookkeeping in flat int arrays (the
   ordered-pair memo and the buffer of racy pair keys), so what it
   allocates is those arrays' doublings and the race list it returns.
   On tst_parallel5 at 48 ranks under Commit (2,256 conflict pairs, all
   racy) that is 38.5 words a pair. The boxed bookkeeping it replaced (a
   Hashtbl entry per ordered check, a Hashtbl keyed by a fresh tuple per
   race, a sort comparing tuples and a list partition per group)
   allocated 225.1 words a pair on the same run. OCaml 5 brings the
   allocation counters up to date at minor collections, so the
   measurement is bracketed by [Gc.minor ()] to count every word. *)
let test_verify_words_per_pair () =
  match Reg.find "tst_parallel5" with
  | None -> Alcotest.fail "tst_parallel5 missing"
  | Some w ->
    let nranks = 48 in
    let records = H.run { w with H.nranks = nranks } in
    let d = V.Estore.of_records ~nranks records in
    let groups = V.Conflict.detect d in
    let reach =
      V.Reach.create V.Reach.Vector_clock
        (V.Hb_graph.build d (V.Match_mpi.run d))
    in
    let sidx = V.Msc.build_index d in
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let races, stats = V.Verify.run V.Model.commit reach sidx d groups in
    Gc.minor ();
    let words =
      (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
    in
    let per_pair = words /. float_of_int stats.V.Verify.pairs in
    check_int "conflict pairs" 2256 stats.V.Verify.pairs;
    check_int "races" 2256 (List.length races);
    check_bool
      (Printf.sprintf "%.1f words per conflict pair, at most 100 allowed"
         per_pair)
      true (per_pair <= 100.)

(* Match_mpi.run dispatches on pool ids and keys its per-record lookups
   by ints in flat tables, so per MPI or MPI-IO record it allocates
   little beyond the events it returns, the collective member lists and
   the tables' doublings: 21.6 words a record on pmulti_dset at 48
   ranks. With the eagerly formatted diagnostic text, string dispatch
   and tuple-keyed tables it replaced, the same run allocated 73.6 words
   a record. Bracketed by [Gc.minor ()] as above. *)
let test_match_words_per_record () =
  match Reg.find "pmulti_dset" with
  | None -> Alcotest.fail "pmulti_dset missing"
  | Some w ->
    let nranks = 48 in
    let d = V.Estore.of_records ~nranks (H.run { w with H.nranks = nranks }) in
    let mpi = ref 0 in
    for i = 0 to V.Estore.length d - 1 do
      match V.Estore.layer d i with
      | Recorder.Record.Mpi | Recorder.Record.Mpiio -> incr mpi
      | _ -> ()
    done;
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = V.Match_mpi.run d in
    Gc.minor ();
    let words =
      (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
    in
    let per_record = words /. float_of_int !mpi in
    check_bool "matched cleanly" true (V.Match_mpi.is_clean r);
    check_bool
      (Printf.sprintf "%.1f words per MPI record, at most %d allowed" per_record
         50)
      true
      (per_record <= float_of_int 50)

let () =
  Alcotest.run "workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "counts" `Quick test_registry_counts;
          Alcotest.test_case "unique names" `Quick test_unique_names;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "expectations" `Slow
            test_every_workload_matches_expectation;
          Alcotest.test_case "relaxed agree" `Slow test_relaxed_models_agree;
          Alcotest.test_case "table III" `Slow test_table_iii_counts;
          Alcotest.test_case "golden race counts" `Slow test_golden_race_counts;
          Alcotest.test_case "gray rows" `Slow test_gray_rows;
          Alcotest.test_case "POSIX subset of relaxed" `Slow
            test_posix_races_are_subset_of_relaxed;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "conflicts scale" `Slow
            test_scaling_increases_conflicts;
          Alcotest.test_case "deterministic" `Quick test_deterministic_verdicts;
          Alcotest.test_case "trace-file round trip" `Slow
            test_trace_file_round_trip_preserves_verdicts;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "match words per MPI record" `Quick
            test_match_words_per_record;
          Alcotest.test_case "verify words per conflict pair" `Quick
            test_verify_words_per_pair;
        ] );
    ]
