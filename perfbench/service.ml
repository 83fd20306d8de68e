(* The serve workload: the open-loop client of [Client] against a fresh
   daemon, over every suite program at scales 1-3. *)

module Spool = Serve.Spool
open Client

(* What one run of any workload reports. *)
type result = {
  setup_s : float;
  tally : Outcome.tally;
  errors : string list;
  metrics : (string * float) list;
}

let run ~seed ~seconds ~trace ~smoke ~work ~spans_out =
  let seconds = float_of_int seconds in
  (* Set-up: generate the traces, start a daemon on an empty spool and
     wait for its answer to a warm-up job. Each repetition gets fresh
     directories and nothing is deleted before the timed phase: on a
     filesystem mounted with discard, deletions cost I/O that the
     daemon's fsyncs would wait for. *)
  let setup rep =
    let dir = Filename.concat work (Printf.sprintf "inputs-%d" rep) in
    let root = Filename.concat (Sys.getcwd ()) (Filename.concat work (Printf.sprintf "spool-%d" rep)) in
    let t0 = Util.now () in
    let code =
      Util.run_self
        ([ "gen"; "--workload"; "serve"; "--seed"; string_of_int seed; "--dir"; dir ]
        @ if smoke then [ "--smoke" ] else [])
    in
    if code <> 0 then failwith "gen process failed";
    let items = Inputs.load dir in
    let pid, spool = Client.start ~root ~warm:(List.hd items) in
    (Util.now () -. t0, pid, spool, List.tl items)
  in
  let rec setups k acc =
    let s, pid, spool, pool = setup k in
    let acc = acc @ [ s ] in
    if k >= Util.setup_reps ~smoke ~first:(List.hd acc) then (Stats.median acc, pid, spool, pool)
    else begin
      stop_daemon pid;
      setups (k + 1) acc
    end
  in
  let setup_s, pid, spool, pool = setups 1 [] in
  let jobs = schedule ~seed ~seconds pool in
  let served = Client.run_jobs ~pid spool jobs ~timeout:(seconds +. 60.) in
  (* Checks, outside the timed phase: the fresh verdicts first, then
     every response against them. *)
  let used = List.sort_uniq compare (List.map (fun j -> j.j_item) jobs) in
  let g0 = Util.gc () in
  let expected = List.map (fun i -> (i, fresh i)) used in
  let g1 = Util.gc () in
  let answered, outcomes = check_responses spool ~expected jobs in
  let latencies = List.map (fun (j, _) -> latency_ms served j) answered in
  let last = List.fold_left (fun a (j, _) -> Float.max a j.answered) served.t0 answered in
  (let by cached =
     List.filter_map
       (fun (j, r) -> if r.Spool.r_cached = cached then Some (latency_ms served j) else None)
       answered
   in
   let show name l =
     if l <> [] then
       Printf.eprintf "[serve] %s: %d jobs, latency ms p25 %.2f p50 %.2f p75 %.2f p90 %.2f\n"
         name (List.length l) (Stats.percentile 25. l) (Stats.percentile 50. l)
         (Stats.percentile 75. l) (Stats.percentile 90. l)
   in
   show "cache hits" (by true);
   show "first-time" (by false));
  let done_records =
    List.fold_left
      (fun a (j, r) -> if r.Spool.r_status = "done" then a + j.j_item.Inputs.records else a)
      0 answered
  in
  let latency p =
    match Stats.percentile_checked p latencies with
    | Some v -> v
    | None when smoke -> Stats.percentile p latencies
    | None -> failwith "serve: too few answered jobs for the latency percentiles"
  in
  let end_to_end =
    [
      ("records_per_s", float_of_int done_records /. (last -. served.t0));
      ("latency_ms_p50", latency 50.);
      ("latency_ms_p90", latency 90.);
      ("peak_rss_mb", served.peak_rss_mb);
    ]
  in
  let mismatches = ref [] in
  let metrics =
    if not trace then end_to_end
    else begin
      let spans = Spans.create () in
      let service = Client.layer_metrics spans ~first_req:0 served jobs answered in
      (* The in-process verdicts again, through the traced layer calls;
         request ids continue after the jobs'. *)
      let c = Verif.counters () in
      let first = List.length answered in
      let timed f =
        let t = Util.now () in
        let v = f () in
        (Util.now () -. t, v)
      in
      (* The same requests untraced, then traced, for the overhead. *)
      let untraced_wall =
        List.fold_left (fun a (item, _) -> a +. fst (timed (fun () -> Verif.request item))) 0. expected
      in
      let traced_wall =
        List.fold_left
          (fun a (i, (item, e)) ->
            let dt, r = timed (fun () -> Verif.traced_request spans c ~req:(first + i) item) in
            if not (Vrun.same_verdicts e.e_kept r) then
              mismatches :=
                (item.Inputs.program ^ ": traced race sets differ from the untraced run")
                :: !mismatches;
            a +. dt)
          0.
          (List.mapi (fun i e -> (i, e)) expected)
      in
      List.iteri
        (fun i (item, _) ->
          Verif.decode_pass spans c ~req:(first + List.length expected + i) item)
        expected;
      Spans.write spans spans_out;
      Vrun.layer_metrics ~passes:1 spans c
      @ Util.gc_metrics ~per:1 g0 g1
      @ Vrun.probe_metrics ~cache_dir:spool.Spool.cache used
      @ service
      @ [
          ("trace.overhead_ratio", (traced_wall /. untraced_wall) -. 1.);
        ]
    end
  in
  {
    setup_s;
    tally = Outcome.tally outcomes;
    errors = Outcome.errors outcomes @ List.rev !mismatches;
    metrics;
  }
