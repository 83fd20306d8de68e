module D = Recorder.Diagnostic

type timings = {
  t_read : float;
  t_conflicts : float;
  t_graph : float;
  t_engine : float;
  t_verify : float;
  t_total : float;
}

type degradation = {
  records_lost : int;
  ops_degraded : int;
  fds_orphaned : int;
  chains_broken : int;
  epilogues_missing : int;
  unmatched_mpi : int;
  graph_fallback : bool;
  diagnostics : D.t list;
}

let no_degradation =
  {
    records_lost = 0;
    ops_degraded = 0;
    fds_orphaned = 0;
    chains_broken = 0;
    epilogues_missing = 0;
    unmatched_mpi = 0;
    graph_fallback = false;
    diagnostics = [];
  }

type outcome = {
  model : Model.t;
  mode : D.mode;
  races : Verify.race list;
  race_count : int;
  unmatched : Match_mpi.unmatched list;
  inventory : Match_mpi.entry list;
  dropped_events : int;
  conflicts : int;
  graph_nodes : int;
  graph_edges : int;
  stats : Verify.stats;
  timings : timings;
  decoded : Estore.t;
  engine_used : Reach.engine;
  degradation : degradation;
}

type prepared = {
  p_mode : D.mode;
  p_decoded : Estore.t;
  p_groups : Conflict.group list;
  p_conflicts : int;
  p_matching : Match_mpi.result;
  p_graph : Hb_graph.t;
  p_reach : Reach.t;
  p_sidx : Msc.sync_index;
  p_engine : Reach.engine;
  p_degraded : int -> bool;
  p_partial : int -> bool;
  p_inventory : Match_mpi.entry list;
  p_dropped : int;
  p_budget : Vio_util.Budget.t option;
  p_degradation : degradation;
  p_t_read : float;
  p_t_conflicts : float;
  p_t_graph : float;
  p_t_engine : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* Everything downstream of the event store: conflicts, matching, the
   happens-before graph, reachability engine, sync index, degradation
   accounting. [t_read] and [n_decoded] describe the read stage that
   produced [d] — list ingest ({!prepare}) and fused streaming file
   ingest ({!prepare_file}) both land here. *)
let prepare_store ?engine ~mode ~upstream ~partial ?budget ~t_read
    ~n_decoded d =
  let lenient = mode = D.Lenient in
  let spend stage n =
    match budget with
    | Some b -> Vio_util.Budget.spend b ~stage n
    | None -> ()
  in
  spend "decode" n_decoded;
  let t_conflicts, groups = timed (fun () -> Conflict.detect d) in
  let conflicts = Conflict.distinct_pairs groups in
  spend "conflicts" conflicts;
  let t_graph, (matching, graph, graph_fallback, dropped) =
    timed (fun () ->
        let m = Match_mpi.run ~mode d in
        if partial then begin
          (* Partial matching: keep going past unmatched calls, and if the
             matched events are mutually inconsistent drop only the events
             on a cycle instead of every MPI edge. *)
          let g, dropped = Hb_graph.build_partial d m in
          (m, g, false, dropped)
        end
        else
          match Hb_graph.build d m with
          | g -> (m, g, false, [])
          | exception Estore.Malformed _ when lenient ->
            (* The salvaged MPI events are inconsistent (e.g. a cycle from a
               half-lost collective): fall back to program order + file
               metadata only. Every cross-rank verdict is then degraded. *)
            (m, Hb_graph.build d { m with Match_mpi.events = [] }, true, []))
  in
  spend "graph" (Hb_graph.edge_count graph);
  let inventory =
    if not partial then []
    else
      Match_mpi.inventory d matching
      @ List.concat_map (Match_mpi.entries_of_event d) dropped
  in
  let diagnostics =
    upstream @ Estore.diagnostics d
    @ matching.Match_mpi.diagnostics
    @ List.map Match_mpi.entry_diagnostic inventory
    @
    if graph_fallback then
      [
        D.make ~fault:D.Degraded_graph
          "happens-before graph rebuilt without MPI edges (salvaged events \
           were inconsistent)";
      ]
    else []
  in
  let engine =
    match engine with
    | Some e -> e
    | None ->
      Reach.recommend ~nranks:(Estore.nranks d)
        ~graph_nodes:(Hb_graph.size graph) ~conflict_pairs:conflicts
  in
  let t_engine, reach = timed (fun () -> Reach.create engine graph) in
  spend "engine" (Hb_graph.size graph);
  let sidx = Msc.build_index d in
  let degraded =
    if not lenient then fun _ -> false
    else begin
      (* A rank touched by any diagnostic is suspect end to end: the lost
         record could have carried the synchronization that orders its
         other ops. Diagnostics with no rank attribution (and unmatched
         MPI, whose missing participants are unknowable) taint the whole
         trace — unless partial matching is on, in which case unmatched
         calls are accounted rank-by-rank via the inventory and downgrade
         verdicts to [Under_partial_order] instead. *)
      let by_rank = Array.make (max 1 (Estore.nranks d)) false in
      let any_global =
        ref
          (graph_fallback
          || ((not partial) && matching.Match_mpi.unmatched <> []))
      in
      List.iter
        (fun (diag : D.t) ->
          if not (partial && diag.D.fault = D.Unmatched_call) then
            match diag.D.rank with
            | Some r when r >= 0 && r < Array.length by_rank ->
              by_rank.(r) <- true
            | Some _ | None -> any_global := true)
        diagnostics;
      if !any_global then fun _ -> true
      else fun idx -> Estore.degraded d idx || by_rank.(Estore.rank d idx)
    end
  in
  let partial_pred =
    if inventory = [] then fun _ -> false
    else begin
      let by_rank = Array.make (max 1 (Estore.nranks d)) false in
      let all = ref false in
      List.iter
        (fun (e : Match_mpi.entry) ->
          match e.Match_mpi.e_implicated with
          | [] -> all := true
          | rs ->
            List.iter
              (fun r ->
                if r >= 0 && r < Array.length by_rank then by_rank.(r) <- true)
              rs)
        inventory;
      if !all then fun _ -> true
      else fun idx -> by_rank.(Estore.rank d idx)
    end
  in
  let degradation =
    if not lenient then no_degradation
    else
      {
        records_lost =
          D.count_class D.Truncated_trace diagnostics
          + D.count_class D.Unreadable_record diagnostics
          + D.count_class D.Duplicate_record diagnostics;
        ops_degraded =
          (let n = ref 0 in
           for i = 0 to Estore.length d - 1 do
             if Estore.degraded d i then incr n
           done;
           !n);
        fds_orphaned = D.count_class D.Orphan_handle diagnostics;
        chains_broken = D.count_class D.Broken_call_chain diagnostics;
        epilogues_missing = D.count_class D.Incomplete_epilogue diagnostics;
        unmatched_mpi = List.length matching.Match_mpi.unmatched;
        graph_fallback;
        diagnostics;
      }
  in
  {
    p_mode = mode;
    p_decoded = d;
    p_groups = groups;
    p_conflicts = conflicts;
    p_matching = matching;
    p_graph = graph;
    p_reach = reach;
    p_sidx = sidx;
    p_engine = engine;
    p_degraded = degraded;
    p_partial = partial_pred;
    p_inventory = inventory;
    p_dropped = List.length dropped;
    p_budget = budget;
    p_degradation = degradation;
    p_t_read = t_read;
    p_t_conflicts = t_conflicts;
    p_t_graph = t_graph;
    p_t_engine = t_engine;
  }

let prepare ?engine ?(mode = D.Strict) ?(upstream = []) ?(partial = false)
    ?budget ~nranks records =
  let t_read, d = timed (fun () -> Estore.of_records ~mode ~nranks records) in
  prepare_store ?engine ~mode ~upstream ~partial ?budget ~t_read
    ~n_decoded:(List.length records) d

let prepare_file ?engine ?(mode = D.Strict) ?(partial = false) ?budget path =
  (* Fused ingest: the trace streams straight from disk into Estore
     columns via [Codec.fold_records] (text or binary, auto-detected) —
     no [Record.t list] is ever materialized, so peak memory is bounded
     by the store itself, not the trace length. *)
  let t_read, d = timed (fun () -> Estore.of_file ~mode path) in
  prepare_store ?engine ~mode ~upstream:[] ~partial ?budget ~t_read
    ~n_decoded:(Estore.length d) d

let is_malformed = function
  | Recorder.Codec.Malformed _ | Estore.Malformed _ -> true
  | _ -> false

let verify_prepared ?(pruning = true) ~model p =
  let t_verify, (races, stats) =
    timed (fun () ->
        Verify.run ~pruning ~degraded:p.p_degraded ~partial:p.p_partial
          ?budget:p.p_budget model p.p_reach p.p_sidx p.p_decoded p.p_groups)
  in
  {
    model;
    mode = p.p_mode;
    races;
    race_count = List.length races;
    unmatched = p.p_matching.Match_mpi.unmatched;
    inventory = p.p_inventory;
    dropped_events = p.p_dropped;
    conflicts = p.p_conflicts;
    graph_nodes = Hb_graph.size p.p_graph;
    graph_edges = Hb_graph.edge_count p.p_graph;
    stats;
    timings =
      {
        t_read = p.p_t_read;
        t_conflicts = p.p_t_conflicts;
        t_graph = p.p_t_graph;
        t_engine = p.p_t_engine;
        t_verify;
        t_total =
          p.p_t_read +. p.p_t_conflicts +. p.p_t_graph +. p.p_t_engine
          +. t_verify;
      };
    decoded = p.p_decoded;
    engine_used = p.p_engine;
    degradation = p.p_degradation;
  }

let is_properly_synchronized o = o.races = [] && o.unmatched = []

let is_degraded o =
  o.degradation.diagnostics <> [] || o.degradation.graph_fallback

let verified_under_partial_order o = o.races = [] && o.inventory <> []

let definite_races o =
  List.filter (fun (r : Verify.race) -> r.Verify.confidence = Verify.Definite)
    o.races

let exit_code ~lenient ~partial o =
  let ok =
    if lenient then definite_races o = []
    else if partial then o.race_count = 0
    else is_properly_synchronized o
  in
  if not ok then 2 else if o.inventory <> [] then 5 else 0

let combine_exits exits =
  if List.mem 2 exits then 2 else if List.mem 5 exits then 5 else 0
