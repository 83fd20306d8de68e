module V = Verifyio
module H = Workloads.Harness

type verdict = { model : string; races : (int * int) list; unmatched : int }

type result = {
  item : Inputs.item;
  records : int;
  verdicts : verdict list;  (** one per registered model, registry order *)
  expect_ok : bool;
      (** the paper's four models agree with the program's expectation tag *)
}

let models () = V.Model.all ()

(* What a run keeps of a checked result. Race lists of a 48-rank pass run
   to hundreds of thousands of pairs; kept alive, they would be marked by
   every major collection the verifier triggers and slow it down. *)
type kept = {
  k_item : Inputs.item;
  k_racy : string list;  (** models that reported races *)
  k_digest : Digest.t;  (** of every model's race set *)
}

let keep r =
  {
    k_item = r.item;
    k_racy = List.filter_map (fun v -> if v.races <> [] then Some v.model else None) r.verdicts;
    k_digest =
      Digest.string
        (Marshal.to_string (List.map (fun v -> (v.model, v.races)) r.verdicts) []);
  }

let summarize (item : Inputs.item) outcomes =
  let records =
    match outcomes with
    | (_, (o : V.Pipeline.outcome)) :: _ -> V.Estore.length o.V.Pipeline.decoded
    | [] -> 0
  in
  let paper_names = List.map (fun (m : V.Model.t) -> m.V.Model.name) V.Model.builtin in
  let paper =
    List.filter (fun ((m : V.Model.t), _) -> List.mem m.V.Model.name paper_names) outcomes
  in
  {
    item;
    records;
    verdicts =
      List.map
        (fun ((m : V.Model.t), (o : V.Pipeline.outcome)) ->
          {
            model = m.V.Model.name;
            races =
              List.map (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
                o.V.Pipeline.races;
            unmatched = List.length o.V.Pipeline.unmatched;
          })
        outcomes;
    expect_ok =
      (match Inputs.expected item with
      | Some w -> H.matches_expectation w paper
      | None -> true);
  }

(* One request, as `verifyio report` serves it: the model-independent
   stages once, then every registered model, each outcome rendered. *)
let request item =
  let p = V.Pipeline.prepare_file item.Inputs.file in
  let outcomes =
    List.map
      (fun model ->
        let o = V.Pipeline.verify_prepared ~model p in
        ignore (V.Report.race_report o);
        (model, o))
      (models ())
  in
  summarize item outcomes

(* ------------------------------------------------------------------ *)
(* The traced request                                                   *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable conflict_pairs : int;
  mutable match_events : int;
  mutable graph_nodes : int;
  mutable graph_edges : int;
  mutable reach_queries : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable sync_ops : int;
  mutable ps_checks : int;
  mutable peer_groups : int;
  mutable fast_groups : int;
  mutable races : int;
  mutable decoded_records : int;
}

let counters () =
  {
    conflict_pairs = 0; match_events = 0; graph_nodes = 0; graph_edges = 0;
    reach_queries = 0; memo_hits = 0; memo_misses = 0; sync_ops = 0;
    ps_checks = 0; peer_groups = 0; fast_groups = 0; races = 0; decoded_records = 0;
  }

let model_span (m : V.Model.t) =
  "verify.run." ^ String.lowercase_ascii m.V.Model.name

let no_timings =
  {
    V.Pipeline.t_read = 0.; t_conflicts = 0.; t_graph = 0.; t_engine = 0.;
    t_verify = 0.; t_total = 0.;
  }

(* The same strict-mode calls, in the same order, as
   [Pipeline.prepare_file] followed by [verify_prepared] per model, each
   wrapped in a span named after its layer. *)
let traced_request spans c ~req item =
  let span name f = Spans.with_span spans name f in
  let outcomes =
    Spans.with_span spans ~req "request" (fun () ->
        let d = span "estore.of_file" (fun () -> V.Estore.of_file item.Inputs.file) in
        let groups = span "conflict.detect" (fun () -> V.Conflict.detect d) in
        let matching = span "match.run" (fun () -> V.Match_mpi.run d) in
        let graph = span "graph.build" (fun () -> V.Hb_graph.build d matching) in
        let conflicts = V.Conflict.distinct_pairs groups in
        (* Verify's fast paths decide (group, peer rank) pairs. *)
        let peer_groups =
          List.fold_left (fun a g -> a + List.length g.V.Conflict.peers) 0 groups
        in
        let engine =
          V.Reach.recommend ~nranks:(V.Estore.nranks d)
            ~graph_nodes:(V.Hb_graph.size graph) ~conflict_pairs:conflicts
        in
        let reach = span "reach.create" (fun () -> V.Reach.create engine graph) in
        let sidx = span "msc.index" (fun () -> V.Msc.build_index d) in
        let outcomes =
          List.map
            (fun model ->
              let races, stats =
                span (model_span model) (fun () ->
                    V.Verify.run model reach sidx d groups)
              in
              let o =
                {
                  V.Pipeline.model;
                  mode = Recorder.Diagnostic.Strict;
                  races;
                  race_count = List.length races;
                  unmatched = matching.V.Match_mpi.unmatched;
                  inventory = [];
                  dropped_events = 0;
                  conflicts;
                  graph_nodes = V.Hb_graph.size graph;
                  graph_edges = V.Hb_graph.edge_count graph;
                  stats;
                  timings = no_timings;
                  decoded = d;
                  engine_used = engine;
                  degradation = V.Pipeline.no_degradation;
                }
              in
              span "report.render" (fun () -> ignore (V.Report.race_report o));
              c.ps_checks <- c.ps_checks + stats.V.Verify.ps_checks;
              c.peer_groups <- c.peer_groups + peer_groups;
              c.fast_groups <- c.fast_groups + stats.V.Verify.fast_groups;
              c.races <- c.races + List.length races;
              (model, o))
            (models ())
        in
        c.conflict_pairs <- c.conflict_pairs + conflicts;
        c.match_events <- c.match_events + List.length matching.V.Match_mpi.events;
        c.graph_nodes <- c.graph_nodes + V.Hb_graph.size graph;
        c.graph_edges <- c.graph_edges + V.Hb_graph.edge_count graph;
        c.reach_queries <- c.reach_queries + V.Reach.query_count reach;
        let hits, misses = V.Reach.memo_stats reach in
        c.memo_hits <- c.memo_hits + hits;
        c.memo_misses <- c.memo_misses + misses;
        c.sync_ops <- c.sync_ops + V.Msc.sync_op_count sidx;
        outcomes)
  in
  summarize item outcomes

(* Decode only, outside the request span: splits [estore.of_file] into
   the codec's share and the column building that follows it. *)
let decode_pass spans c ~req item =
  let folded =
    Spans.with_span spans ~req "codec.decode" (fun () ->
        Recorder.Codec.fold_records item.Inputs.file ~init:() ~f:(fun () _ -> ()))
  in
  c.decoded_records <- c.decoded_records + folded.Recorder.Codec.f_records

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)
(* ------------------------------------------------------------------ *)

(* Race lists come sorted by op pair, so inclusion is one merge. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    let c = compare x y in
    if c = 0 then subset a' b' else if c > 0 then subset a b' else false

(* Lattice monotonicity (a weaker model never reports a race the
   stronger one does not) and POSIX = MPI-IO-Atomic. *)
let lattice_errors r =
  let races name = (List.find (fun (v : verdict) -> v.model = name) r.verdicts).races in
  let pairs =
    List.concat_map
      (fun (m1 : V.Model.t) ->
        List.filter_map
          (fun (m2 : V.Model.t) ->
            if m1 != m2 && V.Model.implies m1 m2
               && not (subset (races m2.V.Model.name) (races m1.V.Model.name))
            then
              Some
                (Printf.sprintf "races(%s) not within races(%s)" m2.V.Model.name
                   m1.V.Model.name)
            else None)
          (models ()))
      (models ())
  in
  let atomic =
    if races V.Model.posix.V.Model.name = races V.Model.mpi_io_atomic.V.Model.name
    then []
    else [ "POSIX and MPI-IO-Atomic race sets differ" ]
  in
  pairs @ atomic

(* Everything a single result can be checked against on its own; the
   corpus-wide Table III totals are checked by [table_iii_errors]. *)
let check ~ingest r =
  let errors =
    lattice_errors r
    @ (if r.expect_ok then [] else [ "verdicts disagree with the expectation tag" ])
    @
    if ingest then
      List.concat_map
        (fun (v : verdict) ->
          (if v.races <> [] then [ v.model ^ ": races in the ingest trace" ] else [])
          @ if v.unmatched > 0 then [ v.model ^ ": unmatched calls" ] else [])
        r.verdicts
    else []
  in
  match errors with
  | [] -> Outcome.Ok
  | e -> Outcome.Wrong_verdict (r.item.Inputs.program ^ ": " ^ String.concat "; " e)

(* Table III: per library and paper model, the programs not properly
   synchronized (gray unmatched rows excluded). *)
let table_iii_errors (kept : kept list) =
  List.concat_map
    (fun (model, h5, nc, pn, total) ->
      let count lib =
        List.length
          (List.filter
             (fun k ->
               match Inputs.expected k.k_item with
               | Some w ->
                 w.H.library = lib && (not w.H.expect.H.exp_unmatched)
                 && List.mem model k.k_racy
               | None -> false)
             kept)
      in
      let got = (count H.Hdf5, count H.Netcdf, count H.Pnetcdf) in
      let g1, g2, g3 = got in
      if got = (h5, nc, pn) && g1 + g2 + g3 = total then []
      else
        [
          Printf.sprintf "Table III %s: got %d/%d/%d, paper %d/%d/%d" model g1
            g2 g3 h5 nc pn;
        ])
    Workloads.Registry.expected_table_iii
