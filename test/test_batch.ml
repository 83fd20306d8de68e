(* The batch engine's headline guarantee: Batch.run_isolated produces
   verdicts bit-identical to the sequential per-model pipeline at every
   domain count. Exercised as a qcheck property over random corpus
   subsets and domain counts, plus determinism and edge cases. *)

module H = Workloads.Harness
module Reg = Workloads.Registry
module V = Verifyio
module B = Verifyio.Batch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Generate each workload's trace once; every test below reuses them. *)
let traces =
  lazy (List.map (fun (w : H.t) -> (w, H.run w)) Reg.all)

(* A comparable digest of one model's outcome: everything a verdict is
   made of, including the per-run statistics. *)
let outcome_sig (o : V.Pipeline.outcome) =
  ( List.map
      (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry, r.V.Verify.confidence))
      o.V.Pipeline.races,
    List.length o.V.Pipeline.unmatched,
    o.V.Pipeline.conflicts,
    (o.V.Pipeline.stats.V.Verify.ps_checks,
     Array.to_list o.V.Pipeline.stats.V.Verify.rule_hits) )

let outcomes_sig outcomes =
  List.map
    (fun ((m : V.Model.t), o) -> (m.V.Model.name, outcome_sig o))
    outcomes

(* Sequential reference verdicts: one prepare per model, sharing nothing
   between models. *)
let sequential_sigs =
  lazy
    (List.map
       (fun ((w : H.t), records) ->
         ( w.H.name,
           outcomes_sig
             (List.map
                (fun m ->
                  ( m,
                    V.Pipeline.verify_prepared ~model:m
                      (V.Pipeline.prepare ~nranks:w.H.nranks records) ))
                V.Model.builtin) ))
       (Lazy.force traces))

let job_of ?models ((w : H.t), records) =
  B.job ?models ~name:w.H.name (fun budget ->
      V.Pipeline.prepare ~budget ~nranks:w.H.nranks records)

let jobs_of selected = List.map job_of selected

let outcomes_of (i : B.isolated) =
  match i.B.i_status with
  | B.Done outcomes -> outcomes
  | _ -> Alcotest.fail (i.B.i_job.B.name ^ ": healthy job not done")

let batch_sigs ~domains selected =
  List.map
    (fun (i : B.isolated) -> (i.B.i_job.B.name, outcomes_sig (outcomes_of i)))
    (B.run_isolated ~domains (jobs_of selected))

(* For all n, Batch.run_isolated ~domains:n equals the sequential
   pipeline. Random subset of the corpus, random domain count 1..4. *)
let prop_batch_matches_sequential =
  QCheck2.Test.make ~count:25
    ~name:"Batch.run ~domains:n verdicts = sequential pipeline (n in 1..4)"
    QCheck2.Gen.(pair (int_range 1 4) (int_bound ((1 lsl 12) - 1)))
    (fun (domains, mask) ->
      let all = Lazy.force traces in
      let total = List.length all in
      (* Pick a pseudo-random subset from the 12-bit mask, cycling it
         across the 91 workloads; never empty. *)
      let selected =
        List.filteri (fun i _ -> (mask lsr (i mod 12)) land 1 = 1) all
      in
      let selected = if selected = [] then [ List.nth all (mask mod total) ] else selected in
      let expected =
        List.map
          (fun ((w : H.t), _) -> List.assoc w.H.name (Lazy.force sequential_sigs))
          selected
      in
      let got = List.map snd (batch_sigs ~domains selected) in
      got = expected)

(* Two batch runs at different domain counts are equal to each other
   (determinism — scheduling decides where a job runs, never its result). *)
let prop_batch_deterministic =
  QCheck2.Test.make ~count:10
    ~name:"Batch.run is deterministic across repeated and varied domain counts"
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 4))
    (fun (d1, d2) ->
      let selected = Lazy.force traces in
      batch_sigs ~domains:d1 selected = batch_sigs ~domains:d2 selected)

let test_full_corpus_all_domain_counts () =
  let all = Lazy.force traces in
  let expected = List.map snd (Lazy.force sequential_sigs) in
  List.iter
    (fun domains ->
      check_bool
        (Printf.sprintf "91-workload corpus at %d domain(s) = sequential" domains)
        true
        (List.map snd (batch_sigs ~domains all) = expected))
    [ 1; 2; 4 ]

let test_results_in_job_order () =
  let all = Lazy.force traces in
  let names = List.map (fun ((w : H.t), _) -> w.H.name) all in
  let results = B.run_isolated ~domains:4 (jobs_of all) in
  check_int "one result per job" (List.length names) (List.length results);
  check_bool "results preserve job order" true
    (List.map (fun (i : B.isolated) -> i.B.i_job.B.name) results = names)

let test_empty_and_single () =
  check_int "no jobs -> no results" 0
    (List.length (B.run_isolated ~domains:4 []));
  match Lazy.force traces with
  | first :: _ ->
    let r = B.run_isolated ~domains:4 [ job_of first ] in
    check_int "single job -> single result" 1 (List.length r)
  | [] -> Alcotest.fail "empty registry"

let test_invalid_domains () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Batch.run_isolated: domains must be positive")
    (fun () -> ignore (B.run_isolated ~domains:0 []))

let test_model_subset_and_order () =
  (* Jobs verify exactly the requested models, in the requested order. *)
  let models = [ V.Model.mpi_io; V.Model.posix ] in
  let r =
    List.hd
      (B.run_isolated ~domains:1
         [ job_of ~models (List.hd (Lazy.force traces)) ])
  in
  check_bool "models in requested order" true
    (List.map (fun ((m : V.Model.t), _) -> m.V.Model.name) (outcomes_of r)
    = [ "MPI-IO"; "POSIX" ])

let () =
  Alcotest.run "batch"
    [
      ( "equivalence",
        [
          Alcotest.test_case "full corpus at 1/2/4 domains" `Slow
            test_full_corpus_all_domain_counts;
          QCheck_alcotest.to_alcotest prop_batch_matches_sequential;
          QCheck_alcotest.to_alcotest prop_batch_deterministic;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "results in job order" `Quick
            test_results_in_job_order;
          Alcotest.test_case "empty and single job" `Quick test_empty_and_single;
          Alcotest.test_case "invalid domain count" `Quick test_invalid_domains;
          Alcotest.test_case "model subset and order" `Quick
            test_model_subset_and_order;
        ] );
    ]
