(* The resilience supervisor: partial MPI matching (inventory, partial
   happens-before graph, Under_partial_order downgrades), deterministic
   step budgets, batch fault isolation with retry/quarantine, and domain
   clamping. *)

module V = Verifyio
module B = Verifyio.Batch
module R = Recorder.Record
module D = Recorder.Diagnostic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* Partial matching: the monotonicity property                        *)
(* ---------------------------------------------------------------- *)

(* Identity of a matched event that survives truncation: records keep
   their (rank, seq) coordinates, so events can be compared across the
   two matchings by projecting op indices onto them. Incomplete
   collectives contribute no happens-before edges and are excluded. *)
let project d events =
  let id i = (V.Estore.rank d i, V.Estore.seq d i) in
  List.filter_map
    (function
      | V.Match_mpi.P2p { send; completion } ->
        Some (`P2p (id send, id completion))
      | V.Match_mpi.Collective { parts; completed = true } ->
        Some
          (`Coll
            (List.sort compare (List.map (fun (init, _) -> id init) parts)))
      | V.Match_mpi.Collective { completed = false; _ } -> None)
    events

let match_events records nranks =
  let d = V.Estore.of_records ~mode:D.Lenient ~nranks records in
  let m = V.Match_mpi.run ~mode:D.Lenient d in
  (d, m)

(* The qcheck property from the issue: matching a truncated prefix of a
   trace never yields happens-before edges absent from the full-trace
   match. Tail truncation preserves per-rank prefixes, and per-channel
   matching is prefix-stable, so every event matched in the truncated
   trace must also be matched — identically — in the full one. *)
let prop_partial_matching_monotone =
  QCheck2.Test.make ~count:60
    ~name:"partial matching is monotone under rank-tail truncation"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let p = Viogen.Workload.generate ~seed () in
      let nranks = p.Viogen.Workload.nranks in
      let full = Viogen.Workload.run p in
      let truncated, _ = Viogen.Mutate.random_truncation ~seed ~nranks full in
      let d_full, m_full = match_events full nranks in
      let d_trunc, m_trunc = match_events truncated nranks in
      let full_set = project d_full m_full.V.Match_mpi.events in
      List.for_all
        (fun ev -> List.mem ev full_set)
        (project d_trunc m_trunc.V.Match_mpi.events))

let test_truncation_yields_inventory () =
  (* Cutting one rank's tail must surface as unmatched calls, not as a
     crash and not as silence. *)
  let p = Viogen.Workload.generate ~seed:3 () in
  let nranks = p.Viogen.Workload.nranks in
  let full = Viogen.Workload.run p in
  let truncated =
    Viogen.Mutate.truncate_rank_tail ~rank:0 ~keep:2 full
  in
  let d, m = match_events truncated nranks in
  check_bool "unmatched calls found" true (m.V.Match_mpi.unmatched <> []);
  let inv = V.Match_mpi.inventory d m in
  check_bool "inventory nonempty" true (inv <> []);
  List.iter
    (fun (e : V.Match_mpi.entry) ->
      check_bool "entry rank in range" true
        (e.V.Match_mpi.e_rank >= 0 && e.V.Match_mpi.e_rank < nranks))
    inv

let test_mutate_basics () =
  let p = Viogen.Workload.generate ~seed:5 () in
  let records = Viogen.Workload.run p in
  let len0 = Viogen.Mutate.rank_length ~rank:0 records in
  check_bool "rank 0 has records" true (len0 > 2);
  let cut = Viogen.Mutate.truncate_rank_tail ~rank:0 ~keep:2 records in
  check_int "rank 0 cut to 2" 2 (Viogen.Mutate.rank_length ~rank:0 cut);
  check_int "other ranks untouched"
    (Viogen.Mutate.rank_length ~rank:1 records)
    (Viogen.Mutate.rank_length ~rank:1 cut);
  Alcotest.check_raises "negative keep rejected"
    (Invalid_argument "Mutate.truncate_rank_tail: keep must be >= 0")
    (fun () -> ignore (Viogen.Mutate.truncate_rank_tail ~rank:0 ~keep:(-1) records));
  (* The mutated trace stays strictly decodable: truncation models a
     silent early exit, not corruption. *)
  let nranks = p.Viogen.Workload.nranks in
  let reencoded = Recorder.Codec.encode ~nranks cut in
  let d = Recorder.Codec.decode_ext reencoded in
  check_int "round-trips nranks" nranks d.Recorder.Codec.nranks;
  check_int "round-trips records" (List.length cut)
    (List.length d.Recorder.Codec.records)

(* ---------------------------------------------------------------- *)
(* Partial graph: cycles drop events, not the whole matching          *)
(* ---------------------------------------------------------------- *)

(* Fabricate a cyclic matching over a real decoded trace: two P2p events
   that contradict program order (rank0 op1 -> rank1 op0 and
   rank1 op1 -> rank0 op0). Strict build must refuse; build_partial must
   drop exactly the cycle's events and keep the rest. *)
let cyclic_case () =
  let p = Viogen.Workload.generate ~seed:11 () in
  let records = Viogen.Workload.run p in
  let d =
    V.Estore.of_records ~mode:D.Lenient ~nranks:p.Viogen.Workload.nranks records
  in
  let chain r = V.Estore.rank_chain d r in
  Alcotest.(check bool)
    "trace has two ranks with two ops" true
    (Array.length (chain 0) >= 2 && Array.length (chain 1) >= 2);
  let ev1 =
    V.Match_mpi.P2p { send = (chain 0).(1); completion = (chain 1).(0) }
  in
  let ev2 =
    V.Match_mpi.P2p { send = (chain 1).(1); completion = (chain 0).(0) }
  in
  ( d,
    {
      V.Match_mpi.events = [ ev1; ev2 ];
      unmatched = [];
      comm_ranks = [];
      diagnostics = [];
    } )

let test_build_rejects_cycle () =
  let d, m = cyclic_case () in
  check_bool "strict build raises Malformed" true
    (try
       ignore (V.Hb_graph.build d m);
       false
     with V.Estore.Malformed _ -> true)

let test_build_partial_drops_cycle () =
  let d, m = cyclic_case () in
  let g, dropped = V.Hb_graph.build_partial d m in
  check_int "both cyclic events dropped" 2 (List.length dropped);
  (* The partial graph is exactly the program-order graph. *)
  let g_po = V.Hb_graph.build d { m with V.Match_mpi.events = [] } in
  check_int "same edge count as program order" (V.Hb_graph.edge_count g_po)
    (V.Hb_graph.edge_count g);
  check_int "same node count" (V.Hb_graph.size g_po) (V.Hb_graph.size g)

let test_build_partial_consistent_is_identity () =
  (* On a consistent matching, build_partial drops nothing and returns
     the same graph build would. *)
  let p = Viogen.Workload.generate ~seed:17 () in
  let records = Viogen.Workload.run p in
  let d = V.Estore.of_records ~nranks:p.Viogen.Workload.nranks records in
  let m = V.Match_mpi.run d in
  let g, dropped = V.Hb_graph.build_partial d m in
  let g_ref = V.Hb_graph.build d m in
  check_int "nothing dropped" 0 (List.length dropped);
  check_int "same edges" (V.Hb_graph.edge_count g_ref) (V.Hb_graph.edge_count g)

(* ---------------------------------------------------------------- *)
(* Under_partial_order downgrades                                     *)
(* ---------------------------------------------------------------- *)

let test_partial_pipeline_downgrades () =
  (* An aborted rank leaves unmatched collectives; with partial matching
     the pipeline reports them in the inventory and keeps every verdict,
     downgrading rather than tainting the whole trace. *)
  let w =
    match Workloads.Registry.find "t_pread" with
    | Some w -> w
    | None -> Alcotest.fail "t_pread workload missing"
  in
  let records = Workloads.Harness.run ~abort_rank:(1, 3) w in
  let o =
    V.Pipeline.verify_prepared ~model:V.Model.posix
      (V.Pipeline.prepare ~mode:D.Lenient ~partial:true
         ~nranks:w.Workloads.Harness.nranks records)
  in
  check_bool "inventory nonempty" true (o.V.Pipeline.inventory <> []);
  check_bool "unmatched reported" true (o.V.Pipeline.unmatched <> []);
  List.iter
    (fun (r : V.Verify.race) ->
      check_bool "no Definite race on an implicated trace" true
        (r.V.Verify.confidence <> V.Verify.Definite))
    o.V.Pipeline.races;
  if o.V.Pipeline.races = [] then
    check_bool "verified under partial order" true
      (V.Pipeline.verified_under_partial_order o)

(* ---------------------------------------------------------------- *)
(* Budgets                                                            *)
(* ---------------------------------------------------------------- *)

let test_budget_accounting () =
  let b = Vio_util.Budget.create 10 in
  check_int "limit" 10 (Vio_util.Budget.limit b);
  Vio_util.Budget.spend b ~stage:"decode" 4;
  check_int "used" 4 (Vio_util.Budget.used b);
  check_int "remaining" 6 (Vio_util.Budget.remaining b);
  check_bool "not exhausted" false (Vio_util.Budget.exhausted b);
  check_bool "overrun raises with stage" true
    (try
       Vio_util.Budget.spend b ~stage:"verify" 7;
       false
     with Vio_util.Budget.Exhausted { stage; limit; used } ->
       stage = "verify" && limit = 10 && used = 11);
  check_bool "exhausted after overrun" true (Vio_util.Budget.exhausted b);
  Alcotest.check_raises "zero limit rejected"
    (Invalid_argument "Budget.create: limit must be positive") (fun () ->
      ignore (Vio_util.Budget.create 0));
  check_bool "describe renders Exhausted" true
    (Vio_util.Budget.describe
       (Vio_util.Budget.Exhausted { stage = "verify"; limit = 1; used = 2 })
    <> None);
  check_bool "describe ignores other exns" true
    (Vio_util.Budget.describe Exit = None)

let test_budget_cuts_pipeline () =
  let w, records =
    match Workloads.Registry.all with
    | w :: _ -> (w, Workloads.Harness.run w)
    | [] -> Alcotest.fail "empty registry"
  in
  let run budget =
    V.Pipeline.verify_prepared ~model:V.Model.posix
      (V.Pipeline.prepare ?budget ~nranks:w.Workloads.Harness.nranks records)
  in
  (* Unbudgeted and generously budgeted runs agree. *)
  let o1 = run None in
  let o2 = run (Some (Vio_util.Budget.create 10_000_000)) in
  check_int "verdicts unaffected by a large budget" o1.V.Pipeline.race_count
    o2.V.Pipeline.race_count;
  check_bool "tiny budget exhausts deterministically" true
    (try
       ignore (run (Some (Vio_util.Budget.create 5)));
       false
     with Vio_util.Budget.Exhausted { stage = "decode"; _ } -> true)

(* ---------------------------------------------------------------- *)
(* Batch fault isolation                                              *)
(* ---------------------------------------------------------------- *)

let healthy () =
  match Workloads.Registry.all with
  | w :: _ -> (w, Workloads.Harness.run w)
  | [] -> Alcotest.fail "empty registry"

let prepare_of ((w : Workloads.Harness.t), records) budget =
  V.Pipeline.prepare ~budget ~nranks:w.Workloads.Harness.nranks records

let healthy_job () =
  let trace = healthy () in
  B.job ~name:(fst trace).Workloads.Harness.name (prepare_of trace)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* A strict-mode trace with a data op on a never-opened fd is malformed. *)
let bogus_job =
  let bogus =
    let open Recorder.Record in
    [
      {
        rank = 0; seq = 0; tstart = 0; tend = 1; layer = Posix;
        func = "pwrite"; args = [| "99"; "8"; "0" |]; ret = "8";
        call_path = [];
      };
    ]
  in
  B.job ~name:"bogus" (fun budget -> V.Pipeline.prepare ~budget ~nranks:1 bogus)

(* A preparation that fails the same way every time, but not as malformed
   input, spends the whole retry allowance; a malformed trace fails the
   same way on every attempt by definition, so it is quarantined at once. *)
let test_isolated_quarantines_failures () =
  let jobs =
    [ healthy_job (); B.job ~name:"failing" (fun _ -> failwith "boom");
      bogus_job; healthy_job () ]
  in
  let results = B.run_isolated ~domains:2 ~retries:2 jobs in
  check_int "one result per job" 4 (List.length results);
  match results with
  | [ a; b; m; c ] ->
    check_bool "healthy jobs done" true
      (match (a.B.i_status, c.B.i_status) with
      | B.Done _, B.Done _ -> true
      | _ -> false);
    check_bool "failing job quarantined after all attempts" true
      (match b.B.i_status with
      | B.Quarantined { attempts = 3; error } ->
        (* 1 try + 2 retries *)
        error <> ""
      | _ -> false);
    check_int "attempts recorded" 3 b.B.i_attempts;
    check_bool "malformed job quarantined after one attempt" true
      (match m.B.i_status with
      | B.Quarantined { attempts = 1; error } ->
        contains error "Estore.Malformed"
      | _ -> false);
    check_int "malformed job not retried" 1 m.B.i_attempts;
    check_int "healthy needed one attempt" 1 a.B.i_attempts
  | _ -> Alcotest.fail "wrong result count"

let test_isolated_budget_times_out_without_retry () =
  let jobs = [ B.job ~budget:5 ~name:"tiny" (prepare_of (healthy ())) ] in
  match B.run_isolated ~retries:3 jobs with
  | [ r ] ->
    check_bool "budget overrun -> Timed_out" true
      (match r.B.i_status with
      | B.Timed_out { stage = "decode"; limit = 5; _ } -> true
      | _ -> false);
    check_int "deterministic overrun is not retried" 1 r.B.i_attempts
  | _ -> Alcotest.fail "wrong result count"

(* Same models in the same order with identical race lists, unmatched
   counts and conflict counts. *)
let verdicts outcomes =
  List.map
    (fun ((m : V.Model.t), (o : V.Pipeline.outcome)) ->
      ( m.V.Model.name,
        o.V.Pipeline.races,
        List.length o.V.Pipeline.unmatched,
        o.V.Pipeline.conflicts ))
    outcomes

let done_verdicts (i : B.isolated) =
  match i.B.i_status with
  | B.Done outcomes -> verdicts outcomes
  | _ -> Alcotest.fail (i.B.i_job.B.name ^ ": healthy job not done")

let test_isolated_matches_pipeline_on_healthy_jobs () =
  let ((w, records) as trace) = healthy () in
  let expected =
    let p = V.Pipeline.prepare ~nranks:w.Workloads.Harness.nranks records in
    verdicts
      (List.map (fun m -> (m, V.Pipeline.verify_prepared ~model:m p))
         V.Model.builtin)
  in
  let job = B.job ~name:"healthy" (prepare_of trace) in
  List.iter
    (fun i -> check_bool "same verdicts" true (done_verdicts i = expected))
    (B.run_isolated ~domains:1 [ job; job ])

let test_invalid_retries () =
  Alcotest.check_raises "negative retries rejected"
    (Invalid_argument "Batch.run_isolated: retries must be >= 0") (fun () ->
      ignore (B.run_isolated ~retries:(-1) []))

(* ---------------------------------------------------------------- *)
(* Domain clamping                                                    *)
(* ---------------------------------------------------------------- *)

let test_domain_clamping () =
  let rec_count = Domain.recommended_domain_count () in
  check_bool "huge request clamped" true
    (B.effective_domains (Some 10_000) <= rec_count);
  check_int "small request honored" 1 (B.effective_domains (Some 1));
  check_int "default" (B.default_domains ()) (B.effective_domains None);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Batch.run_isolated: domains must be positive")
    (fun () -> ignore (B.effective_domains (Some 0)));
  (* An over-subscribed run still completes and agrees with domains=1. *)
  let jobs = [ healthy_job (); healthy_job () ] in
  let a = B.run_isolated ~domains:1 jobs in
  let b = B.run_isolated ~domains:10_000 jobs in
  List.iter2
    (fun x y ->
      check_bool "clamped run agrees" true (done_verdicts x = done_verdicts y))
    a b

let () =
  Alcotest.run "resilience"
    [
      ( "partial-matching",
        [
          QCheck_alcotest.to_alcotest prop_partial_matching_monotone;
          Alcotest.test_case "truncation yields inventory" `Quick
            test_truncation_yields_inventory;
          Alcotest.test_case "mutate basics" `Quick test_mutate_basics;
        ] );
      ( "partial-graph",
        [
          Alcotest.test_case "build rejects cycle" `Quick
            test_build_rejects_cycle;
          Alcotest.test_case "build_partial drops cycle" `Quick
            test_build_partial_drops_cycle;
          Alcotest.test_case "build_partial identity on consistent input"
            `Quick test_build_partial_consistent_is_identity;
          Alcotest.test_case "pipeline downgrades under partial order" `Quick
            test_partial_pipeline_downgrades;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "pipeline cut-off" `Quick test_budget_cuts_pipeline;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "failures quarantined" `Quick
            test_isolated_quarantines_failures;
          Alcotest.test_case "budget overrun times out, no retry" `Quick
            test_isolated_budget_times_out_without_retry;
          Alcotest.test_case "healthy jobs match the pipeline" `Quick
            test_isolated_matches_pipeline_on_healthy_jobs;
          Alcotest.test_case "invalid retries" `Quick test_invalid_retries;
          Alcotest.test_case "domain clamping" `Quick test_domain_clamping;
        ] );
    ]
