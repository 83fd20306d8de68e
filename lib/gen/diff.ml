module V = Verifyio
module P = Verifyio.Pipeline

type divergence = {
  subject : string;
  model : string;
  expected : string;
  got : string;
}

type mutation = {
  target : string;
  rewrite : (int * int) list -> (int * int) list;
}

(* model name, race pairs, conflict-pair count, unmatched count *)
type verdict = string * (int * int) list * int * int

let of_outcomes outcomes : verdict list =
  List.map
    (fun ((m : V.Model.t), (o : P.outcome)) ->
      ( m.V.Model.name,
        List.map (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry)) o.P.races,
        o.P.conflicts,
        List.length o.P.unmatched ))
    outcomes

let subject_names =
  List.map (fun e -> "engine:" ^ V.Reach.engine_name e) V.Reach.all_engines
  @ [ "sequential"; "shared" ]

let subjects ~models ~nranks records : (string * verdict list) list =
  let verify_all p =
    of_outcomes (List.map (fun m -> (m, P.verify_prepared ~model:m p)) models)
  in
  let shared engine = verify_all (P.prepare ?engine ~nranks records) in
  List.map
    (fun e -> ("engine:" ^ V.Reach.engine_name e, shared (Some e)))
    V.Reach.all_engines
  @ [ ( "sequential",
        (* One prepare per model: independent of the shared path. *)
        of_outcomes
          (List.map
             (fun m -> (m, P.verify_prepared ~model:m (P.prepare ~nranks records)))
             models) );
      ("shared", shared None) ]

let render_pairs = function
  | [] -> "{}"
  | ps ->
    "{"
    ^ String.concat " " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ps)
    ^ "}"

let render races conflicts unmatched =
  Printf.sprintf "races=%s conflicts=%d unmatched=%d" (render_pairs races)
    conflicts unmatched

let pp_divergence fmt d =
  Format.fprintf fmt "subject %s model %s:@.  oracle %s@.  got    %s" d.subject
    d.model d.expected d.got

let check ?mutation ~oracle ~nranks records =
  let models = List.map fst oracle in
  let oracle =
    List.map
      (fun ((m : V.Model.t), (v : V.Oracle.verdict)) ->
        (m.V.Model.name, v.V.Oracle.races, v.V.Oracle.conflicts,
         v.V.Oracle.unmatched))
      oracle
  in
  let applies subject =
    match mutation with
    | None -> false
    | Some mu ->
      String.length subject >= String.length mu.target
      && String.sub subject 0 (String.length mu.target) = mu.target
  in
  subjects ~models ~nranks records
  |> List.concat_map (fun (subject, verdicts) ->
         List.concat_map
           (fun (model, races, conflicts, unmatched) ->
             let races =
               if applies subject then (Option.get mutation).rewrite races
               else races
             in
             let _, eraces, econf, eunm =
               List.find (fun (n, _, _, _) -> n = model) oracle
             in
             if races <> eraces || conflicts <> econf || unmatched <> eunm then
               [ { subject; model;
                   expected = render eraces econf eunm;
                   got = render races conflicts unmatched } ]
             else [])
           verdicts)

let check_program ?mutation ?models (p : Workload.program) =
  let nranks = p.Workload.nranks and records = Workload.run p in
  check ?mutation
    ~oracle:(V.Oracle.verify ?models ~nranks records)
    ~nranks records

let shrink ?(budget = 400) ~interesting (p : Workload.program) =
  let remove (q : Workload.program) lo n =
    { q with
      Workload.steps =
        List.filteri (fun i _ -> i < lo || i >= lo + n) q.Workload.steps }
  in
  let budget = ref budget in
  let cur = ref p in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    let chunk = ref (max 1 (List.length (!cur).Workload.steps / 2)) in
    while !chunk >= 1 && !budget > 0 do
      let i = ref 0 in
      while !i + !chunk <= List.length (!cur).Workload.steps && !budget > 0 do
        let cand = remove !cur !i !chunk in
        decr budget;
        if interesting cand then begin
          cur := cand;
          progress := true
          (* keep [i]: the next chunk has shifted into place *)
        end
        else incr i
      done;
      chunk := !chunk / 2
    done
  done;
  !cur
