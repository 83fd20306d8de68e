module R = Recorder.Record
module T = Vio_util.Table

let pp_race d ppf (race : Verify.race) =
  let show idx =
    Format.asprintf "%a@,    call chain: %a" (Estore.pp d) idx R.pp_call_chain
      (Estore.record d idx)
  in
  let marker =
    match race.Verify.confidence with
    | Verify.Definite -> ""
    | Verify.Under_partial_order -> " [under partial order]"
    | Verify.Under_degradation -> " [under degradation]"
  in
  Format.fprintf ppf "@[<v 2>race:%s@,%s@,%s@]" marker (show race.Verify.rx)
    (show race.Verify.ry)

let race_report ?(limit = 10) (o : Pipeline.outcome) =
  let buf = Buffer.create 256 in
  let d = o.Pipeline.decoded in
  Buffer.add_string buf
    (Printf.sprintf "model %s: %d conflicting pair(s), %d data race(s)\n"
       o.Pipeline.model.Model.name o.Pipeline.conflicts o.Pipeline.race_count);
  List.iteri
    (fun i race ->
      if i < limit then
        Buffer.add_string buf (Format.asprintf "%a@." (pp_race d) race))
    o.Pipeline.races;
  if o.Pipeline.race_count > limit then
    Buffer.add_string buf
      (Printf.sprintf "... and %d more\n" (o.Pipeline.race_count - limit));
  List.iter
    (fun u ->
      Buffer.add_string buf
        (Format.asprintf "unmatched MPI: %a@." (Match_mpi.pp_unmatched d) u))
    o.Pipeline.unmatched;
  Buffer.contents buf

let degradation_report ?(limit = 10) (o : Pipeline.outcome) =
  let dg = o.Pipeline.degradation in
  if not (Pipeline.is_degraded o) then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf "degraded trace: verdicts on the salvaged subset\n";
    let counter name n =
      if n > 0 then
        Buffer.add_string buf (Printf.sprintf "  %-24s %d\n" name n)
    in
    counter "records lost" dg.Pipeline.records_lost;
    counter "ops degraded" dg.Pipeline.ops_degraded;
    counter "fds orphaned" dg.Pipeline.fds_orphaned;
    counter "call chains broken" dg.Pipeline.chains_broken;
    counter "epilogues missing" dg.Pipeline.epilogues_missing;
    counter "unmatched MPI calls" dg.Pipeline.unmatched_mpi;
    if dg.Pipeline.graph_fallback then
      Buffer.add_string buf
        "  happens-before graph rebuilt without MPI edges\n";
    let diags = dg.Pipeline.diagnostics in
    let total = List.length diags in
    List.iteri
      (fun i diag ->
        if i < limit then
          Buffer.add_string buf
            (Printf.sprintf "  %s\n" (Recorder.Diagnostic.to_string diag)))
      diags;
    if total > limit then
      Buffer.add_string buf (Printf.sprintf "  ... and %d more\n" (total - limit));
    Buffer.contents buf
  end

let unmatched_table (o : Pipeline.outcome) =
  if o.Pipeline.inventory = [] then ""
  else begin
    let t =
      T.create
        ~headers:[ "Call"; "Rank"; "Comm"; "Seq"; "Reason"; "Detail" ]
    in
    T.set_aligns t [ T.Left; T.Right; T.Right; T.Right; T.Left; T.Left ];
    let opt = function Some v -> string_of_int v | None -> "-" in
    List.iter
      (fun (e : Match_mpi.entry) ->
        T.add_row t
          [
            e.Match_mpi.e_func;
            string_of_int e.Match_mpi.e_rank;
            opt e.Match_mpi.e_comm;
            opt e.Match_mpi.e_seq;
            Match_mpi.reason_to_string e.Match_mpi.e_reason;
            e.Match_mpi.e_detail;
          ])
      o.Pipeline.inventory;
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "unmatched-call inventory: %d entr%s, %d matched event(s) dropped\n"
         (List.length o.Pipeline.inventory)
         (if List.length o.Pipeline.inventory = 1 then "y" else "ies")
         o.Pipeline.dropped_events);
    Buffer.add_string buf (T.render t);
    if Pipeline.verified_under_partial_order o then
      Buffer.add_string buf
        "verdict: properly synchronized modulo unmatched calls\n";
    Buffer.contents buf
  end

let summary_line ~name (o : Pipeline.outcome) =
  Printf.sprintf "%-24s %-8s conflicts=%-8d races=%-8d unmatched=%d" name
    o.Pipeline.model.Model.name o.Pipeline.conflicts o.Pipeline.race_count
    (List.length o.Pipeline.unmatched)

let table_i () =
  let t = T.create ~headers:[ "Consistency Models"; "S"; "MSC" ] in
  List.iter
    (fun (m : Model.t) ->
      T.add_row t
        [
          m.Model.name ^ " Consistency";
          "{" ^ String.concat ", " m.Model.sync_set ^ "}";
          m.Model.msc_desc;
        ])
    Model.builtin;
  T.render t

let table_models () =
  let models = Model.all () in
  let t =
    T.create
      ~headers:[ "Consistency Models"; "Aliases"; "S"; "MSC"; "Implies" ]
  in
  List.iter
    (fun (m : Model.t) ->
      let weaker =
        List.filter
          (fun (o : Model.t) -> o.Model.name <> m.Model.name && Model.implies m o)
          models
      in
      T.add_row t
        [
          m.Model.name ^ " Consistency";
          (match m.Model.aliases with [] -> "-" | l -> String.concat ", " l);
          "{" ^ String.concat ", " m.Model.sync_set ^ "}";
          m.Model.msc_desc;
          (match weaker with
          | [] -> "-"
          | l ->
            String.concat ", " (List.map (fun (o : Model.t) -> o.Model.name) l));
        ])
    models;
  T.render t

let table_ii () =
  let t = T.create ~headers:[ "Tracing Tool"; "HDF5"; "NetCDF"; "PnetCDF" ] in
  T.set_aligns t [ T.Left; T.Right; T.Right; T.Right ];
  List.iter
    (fun (tool, h, n, p) ->
      let cell = function Some x -> string_of_int x | None -> "-" in
      T.add_row t [ tool; cell h; cell n; cell p ])
    Recorder.Signatures.table_ii_rows;
  T.render t

let timing_row (o : Pipeline.outcome) =
  let t = o.Pipeline.timings in
  [
    ("Read Trace", t.Pipeline.t_read);
    ("Detect Conflicts", t.Pipeline.t_conflicts);
    ("Build the Happens-before Graph", t.Pipeline.t_graph);
    ("Generate Vector Clock", t.Pipeline.t_engine);
    ("Verification", t.Pipeline.t_verify);
    ("Total", t.Pipeline.t_total);
  ]

type race_group = {
  rg_chain_x : string;
  rg_chain_y : string;
  rg_count : int;
  rg_sample : Verify.race;
}

let chain_of d idx =
  Format.asprintf "%a" R.pp_call_chain (Estore.record d idx)

let group_races (o : Pipeline.outcome) =
  let d = o.Pipeline.decoded in
  let tbl : (string * string, int * Verify.race) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (r : Verify.race) ->
      (* Order the chain pair canonically so X/Y orientation does not
         split a group. *)
      let a = chain_of d r.Verify.rx and b = chain_of d r.Verify.ry in
      let key = if a <= b then (a, b) else (b, a) in
      match Hashtbl.find_opt tbl key with
      | Some (n, sample) -> Hashtbl.replace tbl key (n + 1, sample)
      | None -> Hashtbl.replace tbl key (1, r))
    o.Pipeline.races;
  Hashtbl.fold
    (fun (a, b) (n, sample) acc ->
      { rg_chain_x = a; rg_chain_y = b; rg_count = n; rg_sample = sample } :: acc)
    tbl []
  |> List.sort (fun g1 g2 ->
         compare (-g1.rg_count, g1.rg_chain_x) (-g2.rg_count, g2.rg_chain_x))

let grouped_report (o : Pipeline.outcome) =
  let groups = group_races o in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "model %s: %d data race(s) from %d distinct call-chain pair(s)\n"
       o.Pipeline.model.Model.name o.Pipeline.race_count (List.length groups));
  List.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "%6dx  %s\n     vs  %s\n" g.rg_count g.rg_chain_x
           g.rg_chain_y))
    groups;
  Buffer.contents buf
