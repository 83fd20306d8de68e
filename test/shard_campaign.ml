(* Interval-index differential campaign (@shard-smoke): 200 seeds of
   generated workloads at 64-256 ranks, the scale at which
   [Reach.recommend] picks the interval-index engine. Each seed runs
   [Pipeline.prepare] twice over the same happens-before graph — once
   with the interval-index engine, once with the vector-clock engine —
   and the two must produce the same verdicts, races, inventory and
   stats for every builtin model.

   Exits 1 on any divergence, printing the offending seed and rank count
   so the failure is reproducible with [Viogen.Workload.generate]. *)

module V = Verifyio
module P = Verifyio.Pipeline

let nranks_grid = [| 64; 96; 128; 192; 256 |]

(* Everything semantically meaningful in an outcome — deliberately not
   the timings, and not [engine_used], which differs by construction. *)
let key ((m : V.Model.t), (o : P.outcome)) =
  ( m.V.Model.name,
    o.P.races,
    o.P.race_count,
    o.P.unmatched,
    o.P.inventory,
    o.P.dropped_events,
    o.P.conflicts,
    o.P.graph_nodes,
    o.P.graph_edges,
    o.P.stats )

let () =
  let seeds = 200 in
  let failures = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = 9000 + i in
    let nranks = nranks_grid.(i mod Array.length nranks_grid) in
    let p =
      Viogen.Workload.generate ~nranks ~max_steps:(16 + (i mod 9)) ~seed ()
    in
    let records = Viogen.Workload.run p in
    let nranks = p.Viogen.Workload.nranks in
    let verify_all engine =
      let p = P.prepare ~engine ~nranks records in
      List.map (fun m -> (m, P.verify_prepared ~model:m p)) V.Model.builtin
    in
    let base = verify_all V.Reach.Vector_clock in
    let ii = verify_all V.Reach.Interval_index in
    if List.map key base <> List.map key ii then begin
      incr failures;
      Printf.printf
        "DIVERGENCE seed %d (%d ranks): interval-index verdicts differ from \
         vector-clock\n"
        seed nranks
    end;
    if (i + 1) mod 50 = 0 then
      Printf.printf "interval-index campaign: %d/%d seeds done\n%!" (i + 1)
        seeds
  done;
  if !failures = 0 then begin
    Printf.printf
      "interval-index campaign: %d seeds, 64-256 ranks, zero divergences\n"
      seeds;
    exit 0
  end
  else begin
    Printf.printf "interval-index campaign: %d seeds, %d DIVERGENCES\n" seeds
      !failures;
    exit 1
  end
