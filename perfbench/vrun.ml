(* The timed process of the corpus, wide and ingest workloads. It reads
   the trace files another process generated, warms up, then verifies
   whole passes over the files until the run's time is used. With
   tracing on it repeats the same passes through the traced layer calls. *)

module V = Verifyio

type child = {
  ready : float;  (** when the warm-up finished (epoch seconds) *)
  tally : Outcome.tally;
  errors : string list;
  metrics : (string * float) list;
}

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Warm-up: a full pass where one is cheap; for wide, the first eight
   programs by name, so that set-up time does not depend on the seed. *)
let warmup_items wl items =
  match wl with
  | Inputs.Wide -> take 8 (List.sort compare items)
  | Inputs.Corpus | Inputs.Ingest | Inputs.Serve -> items

(* The ingest trace must look as designed before it is timed. *)
let ingest_shape_errors ~smoke (r : Verif.result) =
  let steps = Inputs.heat_steps ~smoke in
  let lo = 25 * steps and hi = 35 * steps in
  (if r.Verif.item.Inputs.nranks = Heat.nranks then []
   else [ "ingest trace has the wrong rank count" ])
  @ (if r.Verif.records >= lo && r.Verif.records <= hi then []
     else
       [
         Printf.sprintf "ingest trace has %d records, outside [%d, %d]"
           r.Verif.records lo hi;
       ])
  @
  if List.for_all (fun v -> v.Verif.unmatched = 0) r.Verif.verdicts then []
  else [ "ingest trace has unmatched calls" ]

(* Latency percentiles need 10 samples beyond them. Corpus and wide run
   whole passes until p90 has them; ingest has one request per pass, so
   its percentiles are over the few whole-trace requests it makes. *)
let needs_p90_samples = function
  | Inputs.Corpus | Inputs.Wide -> true
  | Inputs.Ingest | Inputs.Serve -> false

let layer_spans =
  [
    ("codec.decode_s", "codec.decode");
    ("estore.of_file_s", "estore.of_file");
    ("conflict.detect_s", "conflict.detect");
    ("match.run_s", "match.run");
    ("graph.build_s", "graph.build");
    ("reach.create_s", "reach.create");
    ("msc.index_s", "msc.index");
    ("report.render_s", "report.render");
  ]

(* Per-layer metrics of the traced passes, each divided by the number of
   passes so that a faster layer does not change what a value covers. *)
let layer_metrics ~passes spans (c : Verif.counters) =
  let per x = x /. float_of_int (max 1 passes) in
  let self = Spans.self_times (Spans.spans spans) in
  let total name = Option.value ~default:0. (List.assoc_opt name self) in
  let model_times =
    List.map
      (fun m -> ("verify.run_s." ^ String.lowercase_ascii m.V.Model.name, per (total (Verif.model_span m))))
      (Verif.models ())
  in
  let f = float_of_int in
  List.map (fun (metric, span) -> (metric, per (total span))) layer_spans
  @ [
      ("estore.columns_s", per (total "estore.of_file" -. total "codec.decode"));
      ("codec.records_per_s", Util.ratio (f c.Verif.decoded_records) (total "codec.decode"));
      ("conflict.pairs", per (f c.Verif.conflict_pairs));
      ("match.events", per (f c.Verif.match_events));
      ("graph.nodes", per (f c.Verif.graph_nodes));
      ("graph.edges", per (f c.Verif.graph_edges));
      ("reach.queries", per (f c.Verif.reach_queries));
      ( "reach.memo_hit_ratio",
        Util.ratio (f c.Verif.memo_hits) (f (c.Verif.memo_hits + c.Verif.memo_misses)) );
      ("msc.sync_ops", per (f c.Verif.sync_ops));
      ("verify.run_s", List.fold_left (fun a (_, v) -> a +. v) 0. model_times);
      ("verify.ps_checks", per (f c.Verif.ps_checks));
      ("verify.fast_group_ratio", Util.ratio (f c.Verif.fast_groups) (f c.Verif.peer_groups));
      ("verify.races", per (f c.Verif.races));
    ]
  @ model_times

let plain_flags =
  Serve.Spool.flags_string
    {
      Serve.Spool.id = ""; trace = ""; models = []; lenient = false;
      partial = false; budget = None; timeout_ms = None;
    }

(* What a service would pay per trace before verifying it: the cache
   probe (trace digest plus one lookup per model) and a full decode. *)
let probe_metrics ~cache_dir items =
  let timed f = List.map (fun i -> let t = Util.now () in f i; Util.ms (Util.now () -. t)) items in
  let probe (i : Inputs.item) =
    let sha = Vio_util.Sha256.digest_file i.Inputs.file in
    List.iter
      (fun model ->
        let key = Serve.Cache.key ~trace_sha256:sha ~model ~flags:plain_flags in
        ignore (Serve.Cache.lookup ~dir:cache_dir ~key))
      (Verif.models ())
  in
  let decode (i : Inputs.item) =
    ignore (Recorder.Codec.decode_ext (Recorder.Codec.read_file i.Inputs.file))
  in
  [
    ("cache.probe_ms_p50", Stats.median (timed probe));
    ("codec.decode_ms_p50", Stats.median (timed decode));
  ]

(* The service layers, measured by replaying this workload's traces
   through a daemon with the serve workload's open-loop client. Only the
   corpus does this: its first-time jobs stay far below the daemon's
   capacity at the client's rate, where wide's and ingest's would not.
   Once the daemon has stopped, every response is checked against a fresh
   in-process verdict of its trace. *)
let service_leg ~seed ~dir ~first_req spans items =
  let root = Filename.concat (Sys.getcwd ()) (Filename.concat dir "service-spool") in
  let pid, spool = Client.start ~root ~warm:(List.hd items) in
  let jobs = Client.schedule ~seed ~seconds:0. (List.tl items) in
  let served = Client.run_jobs ~pid spool jobs ~timeout:120. in
  let expected = List.map (fun i -> (i, Client.fresh i)) (List.tl items) in
  let answered, outcomes = Client.check_responses spool ~expected jobs in
  (Client.layer_metrics spans ~first_req served jobs answered, outcomes)

let service_metrics =
  [
    "spool.submit_ms_p50"; "daemon.wait_ms_p50"; "gen.late_ms_max"; "cache.hit_ratio";
    "batch.compute_ms_p50"; "batch.retries"; "journal.bytes";
  ]

let same_verdicts (k : Verif.kept) (r : Verif.result) =
  k.Verif.k_digest = (Verif.keep r).Verif.k_digest

let run ~wl ~seed ~smoke ~dir ~seconds ~trace ~warmup_only ~spans_out =
  let items = Inputs.load dir in
  (* A fresh order each pass, so that no one ordering's interplay with
     the collector decides a run. *)
  let pass_order p = Util.shuffle ~seed:((seed * 1000) + p) items in
  let order = pass_order 0 in
  let warm = List.map Verif.request (warmup_items wl items) in
  let shape_errors =
    match (wl, warm) with
    | Inputs.Ingest, [ r ] -> ingest_shape_errors ~smoke r
    | _ -> []
  in
  let ready = Util.now () in
  if warmup_only || shape_errors <> [] then
    { ready; tally = Outcome.tally []; errors = shape_errors; metrics = [] }
  else begin
    let g0 = Util.gc () in
    let t0 = Util.now () in
    (* Each result is checked and dropped at once: results kept alive
       would be marked by every major collection the requests trigger,
       slowing later requests. Only the first pass is kept, for the
       corpus-wide totals and the traced run's comparison. *)
    let samples = ref [] and outcomes = ref [] and first_pass = ref [] in
    let busy = ref 0. and records = ref 0 and passes = ref 0 in
    let more () =
      Util.now () -. t0 < seconds
      || (needs_p90_samples wl && Stats.percentile_checked 90. !samples = None)
    in
    while more () do
      let tp = Util.now () in
      let order = pass_order !passes in
      List.iter
        (fun item ->
          let t = Util.now () in
          match Verif.request item with
          | r ->
            let dt = Util.now () -. t in
            samples := Util.ms dt :: !samples;
            busy := !busy +. dt;
            records := !records + r.Verif.records;
            outcomes := Verif.check ~ingest:(wl = Inputs.Ingest) r :: !outcomes;
            if !passes = 0 then first_pass := Verif.keep r :: !first_pass
          | exception e -> outcomes := Outcome.Raised (Printexc.to_string e) :: !outcomes)
        order;
      Printf.eprintf "[%s] pass %d: %d requests in %.3f s\n%!" (Inputs.workload_name wl)
        !passes (List.length order) (Util.now () -. tp);
      incr passes
    done;
    let g1 = Util.gc () in
    let peak_rss_mb = Util.vmhwm_mb "/proc/self/status" in
    let first_pass = List.rev !first_pass and outcomes = List.rev !outcomes in
    let table_errors =
      if wl = Inputs.Corpus && not smoke then Verif.table_iii_errors first_pass else []
    in
    let errors = table_errors @ Outcome.errors outcomes in
    let latency p = Stats.percentile p !samples in
    let end_to_end =
      [
        (* Per second spent in requests: the benchmark's own checking
           between requests is not the verifier's time. *)
        ("records_per_s", float_of_int !records /. !busy);
        ("latency_ms_p50", latency 50.);
        ("latency_ms_p90", latency 90.);
        ("peak_rss_mb", peak_rss_mb);
      ]
    in
    if not trace then
      { ready; tally = Outcome.tally outcomes; errors; metrics = end_to_end }
    else begin
      let spans = Spans.create () and c = Verif.counters () in
      let traced_wall = ref 0. and mismatches = ref [] in
      for pass = 0 to !passes - 1 do
        List.iteri
          (fun i item ->
            let req = (pass * List.length order) + i in
            let t = Util.now () in
            let r = Verif.traced_request spans c ~req item in
            traced_wall := !traced_wall +. (Util.now () -. t);
            match List.find_opt (fun k -> k.Verif.k_item = item) first_pass with
            | Some u when same_verdicts u r -> ()
            | _ ->
              mismatches :=
                (item.Inputs.program ^ ": traced race sets differ from the untraced run")
                :: !mismatches)
          (pass_order pass)
      done;
      (* The decode-only passes come last, so that the traced requests run
         in the same sequence as the untraced ones. *)
      let first = !passes * List.length order in
      for pass = 0 to !passes - 1 do
        List.iteri
          (fun i item ->
            Verif.decode_pass spans c ~req:(first + (pass * List.length order) + i) item)
          order
      done;
      let service, service_outcomes =
        if wl = Inputs.Corpus then
          service_leg ~seed ~dir ~first_req:(2 * first) spans items
        else (List.map (fun k -> (k, 0.)) service_metrics, [])
      in
      let outcomes = outcomes @ service_outcomes in
      Spans.write spans spans_out;
      let cache_dir = Filename.concat dir "probe-cache" in
      let metrics =
        layer_metrics ~passes:!passes spans c
        @ Util.gc_metrics ~per:!passes g0 g1
        @ probe_metrics ~cache_dir order
        @ service
        @ [ ("trace.overhead_ratio", (!traced_wall /. !busy) -. 1.) ]
      in
      {
        ready;
        tally = Outcome.tally outcomes;
        errors = errors @ List.rev !mismatches @ Outcome.errors service_outcomes;
        metrics;
      }
    end
  end
