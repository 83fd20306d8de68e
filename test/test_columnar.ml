(* Differential gate for the columnar event-core refactor (PR 5).

   The golden file [golden_pr5.digest] was captured by running this very
   program against the legacy boxed-record pipeline (Op.t values, whole-file
   decode) at the pre-refactor commit, with [COLUMNAR_GOLDEN_REGEN] set.
   The columnar pipeline must reproduce every digest byte-for-byte:

   - every committed [fuzz_corpus] trace, with the full per-config detail
     stored verbatim (races + confidence, conflict/graph counts, pruning
     stats, unmatched diagnostics, partial-match inventories, budget
     exhaustion points, rendered-report checksums);
   - 300 fresh deterministic [viogen] seeds, one md5 per (seed, config)
     over the same detail text.

   Configs cover the four pre-PR8 reach engines, shared-prep with dynamic
   engine selection, the sequential per-model baseline, the batch runner
   at 1 and 2 domains, lenient partial matching, and two step budgets
   (one that exhausts, one that completes) — the full matrix the issue
   names. The interval-index engine gets no golden lines of its own;
   each replay asserts its verdict lines byte-equal the vector-clock
   lines the digests already lock.

   By default the check replays the corpus plus the first 60 seeds (keeps
   [dune runtest] fast); set [COLUMNAR_SEEDS=300] to replay the whole
   campaign, as done once per PR and recorded in EXPERIMENTS.md. *)

module V = Verifyio
module P = V.Pipeline
module D = Recorder.Diagnostic

let seed_base = 5000
let seed_count = 300

let conf_letter = function
  | V.Verify.Definite -> "D"
  | V.Verify.Under_partial_order -> "P"
  | V.Verify.Under_degradation -> "G"

let races_str rs =
  rs
  |> List.map (fun (r : V.Verify.race) ->
         Printf.sprintf "%d-%d%s" r.V.Verify.rx r.V.Verify.ry
           (conf_letter r.V.Verify.confidence))
  |> String.concat ","

let ints l = String.concat "," (List.map string_of_int l)

let unmatched_str = function
  | V.Match_mpi.Mismatched_collective { comm; position; present; missing } ->
    Printf.sprintf "MC(c%d,p%d,[%s],[%s])" comm position
      (String.concat ","
         (List.map (fun (r, f) -> Printf.sprintf "%d:%s" r f) present))
      (ints missing)
  | V.Match_mpi.Orphan_collective { comm; rank; op } ->
    Printf.sprintf "OC(c%d,r%d,o%d)" comm rank op
  | V.Match_mpi.Unmatched_send i -> Printf.sprintf "US(%d)" i
  | V.Match_mpi.Unmatched_recv i -> Printf.sprintf "UR(%d)" i

let opt_int = function None -> "-" | Some i -> string_of_int i

let entry_str (e : V.Match_mpi.entry) =
  Printf.sprintf "%s/r%d/c%s/s%s/%s/'%s'/[%s]" e.V.Match_mpi.e_func
    e.V.Match_mpi.e_rank
    (opt_int e.V.Match_mpi.e_comm)
    (opt_int e.V.Match_mpi.e_seq)
    (V.Match_mpi.reason_to_string e.V.Match_mpi.e_reason)
    e.V.Match_mpi.e_detail
    (ints e.V.Match_mpi.e_implicated)

let outcome_line ((m : V.Model.t), (o : P.outcome)) =
  let s = o.P.stats in
  Printf.sprintf
    "%s races=[%s] conf=%d um=[%s] inv=[%s] drop=%d nodes=%d edges=%d \
     stats={g=%d,p=%d,ps=%d,fast=%d,r=%s} psync=%b vpo=%b"
    m.V.Model.name (races_str o.P.races) o.P.conflicts
    (String.concat ";" (List.map unmatched_str o.P.unmatched))
    (String.concat ";" (List.map entry_str o.P.inventory))
    o.P.dropped_events o.P.graph_nodes o.P.graph_edges s.V.Verify.groups
    s.V.Verify.pairs s.V.Verify.ps_checks s.V.Verify.fast_groups
    (ints (Array.to_list s.V.Verify.rule_hits))
    (P.is_properly_synchronized o)
    (P.verified_under_partial_order o)

(* Every gate config for one trace, as "config | detail" lines. *)
let subject_lines ~lenient ~nranks ~upstream records =
  let mode = if lenient then D.Lenient else D.Strict in
  let verify_all p =
    List.map (fun m -> (m, P.verify_prepared ~model:m p)) V.Model.builtin
  in
  let shared ?engine () =
    verify_all (P.prepare ?engine ~mode ~upstream ~nranks records)
  in
  let out = ref [] in
  let add cfg lines = out := !out @ List.map (fun s -> cfg ^ " | " ^ s) lines in
  (* The golden file was recorded when [all_engines] had four entries;
     iterating [legacy_engines] keeps its line counts pinned. The fifth
     engine is held to the same digests by the parity check below
     instead of new golden lines. *)
  List.iter
    (fun e ->
      add
        ("shared:" ^ V.Reach.engine_name e)
        (List.map outcome_line (shared ~engine:e ())))
    V.Reach.legacy_engines;
  (* Interval-index parity (not part of the golden line set): its
     verdicts must be byte-identical to the vector-clock lines the digest
     gate just locked. Transitively that holds them identical to
     golden_pr5.digest. *)
  let vc_lines = List.map outcome_line (shared ~engine:V.Reach.Vector_clock ()) in
  let ii_lines =
    List.map outcome_line (shared ~engine:V.Reach.Interval_index ())
  in
  if ii_lines <> vc_lines then
    failwith
      ("columnar gate: interval-index diverges from vector-clock:\n  vc: "
      ^ String.concat "\n      " vc_lines
      ^ "\n  ii: "
      ^ String.concat "\n      " ii_lines);
  let auto = shared () in
  add "shared:auto" (List.map outcome_line auto);
  (match auto with
  | (_, o) :: _ ->
    add "shared:auto:engine" [ V.Reach.engine_name o.P.engine_used ];
    let txt =
      V.Report.race_report o ^ "\n" ^ V.Report.unmatched_table o ^ "\n"
      ^ V.Report.grouped_report o
    in
    add "report:md5" [ Digest.to_hex (Digest.string txt) ]
  | [] -> ());
  (* One prepare per model: nothing shared between models. *)
  if not lenient then
    add "sequential"
      (List.map
         (fun m ->
           outcome_line (m, P.verify_prepared ~model:m (P.prepare ~nranks records)))
         V.Model.builtin);
  let job =
    V.Batch.job ~name:"gate" (fun budget ->
        P.prepare ~mode ~upstream ~budget ~nranks records)
  in
  List.iter
    (fun d ->
      add
        (Printf.sprintf "batch:%d" d)
        (List.concat_map
           (fun (i : V.Batch.isolated) ->
             match i.V.Batch.i_status with
             | V.Batch.Done outcomes -> List.map outcome_line outcomes
             | _ -> failwith "columnar gate: batch job did not finish")
           (V.Batch.run_isolated ~domains:d [ job ])))
    [ 1; 2 ];
  add "partial"
    (List.map outcome_line
       (verify_all
          (P.prepare ~mode:D.Lenient ~upstream ~partial:true ~nranks records)));
  let budget_line n =
    match
      P.verify_prepared ~model:V.Model.posix
        (P.prepare ~mode ~upstream ~budget:(Vio_util.Budget.create n) ~nranks
           records)
    with
    | o -> "ok " ^ outcome_line (V.Model.posix, o)
    | exception Vio_util.Budget.Exhausted { stage; limit; used } ->
      Printf.sprintf "exhausted stage=%s used=%d limit=%d" stage used limit
  in
  add "budget:40" [ budget_line 40 ];
  add "budget:100000" [ budget_line 100000 ];
  !out

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let corpus_files () =
  Sys.readdir "fuzz_corpus"
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vio-trace")
  |> List.sort compare

let trace_lines name =
  let lenient = contains_sub name "truncate" in
  let mode = if lenient then D.Lenient else D.Strict in
  let d =
    Recorder.Codec.decode_ext ~mode
      (Recorder.Codec.read_file (Filename.concat "fuzz_corpus" name))
  in
  subject_lines ~lenient ~nranks:d.Recorder.Codec.nranks
    ~upstream:d.Recorder.Codec.diagnostics d.Recorder.Codec.records

let seed_md5 seed =
  let p = Viogen.Workload.generate ~seed () in
  let records = Viogen.Workload.run p in
  let lines =
    subject_lines ~lenient:false ~nranks:p.Viogen.Workload.nranks ~upstream:[]
      records
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let regen path seeds =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf
    "# Golden digests for the columnar event-core gate (PR 5).\n\
     # Captured against the legacy boxed-record pipeline; regenerate with\n\
     # COLUMNAR_GOLDEN_REGEN=<path> COLUMNAR_SEEDS=300 ./test_columnar.exe\n";
  List.iter
    (fun name ->
      Buffer.add_string buf (Printf.sprintf "== trace %s\n" name);
      List.iter
        (fun l -> Buffer.add_string buf (l ^ "\n"))
        (trace_lines name);
      Printf.printf "captured %s\n%!" name)
    (corpus_files ());
  Buffer.add_string buf (Printf.sprintf "== seeds base=%d count=%d\n" seed_base seeds);
  for i = 0 to seeds - 1 do
    let seed = seed_base + i in
    Buffer.add_string buf (Printf.sprintf "seed %d %s\n" seed (seed_md5 seed));
    if i mod 50 = 49 then Printf.printf "captured %d seeds\n%!" (i + 1)
  done;
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Parse the golden file into (trace -> lines) plus (seed -> md5). *)
let load_golden path =
  let ic = open_in path in
  let traces = Hashtbl.create 16 and seeds = Hashtbl.create 512 in
  let cur = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.length line = 0 || line.[0] = '#' then ()
       else if String.length line > 9 && String.sub line 0 9 = "== trace " then begin
         let name = String.sub line 9 (String.length line - 9) in
         cur := Some name;
         Hashtbl.replace traces name []
       end
       else if String.length line > 8 && String.sub line 0 8 = "== seeds" then
         cur := None
       else
         match !cur with
         | Some name ->
           Hashtbl.replace traces name (line :: Hashtbl.find traces name)
         | None -> (
           match String.split_on_char ' ' line with
           | [ "seed"; s; md5 ] -> Hashtbl.replace seeds (int_of_string s) md5
           | _ -> failwith ("golden_pr5.digest: bad line: " ^ line))
     done
   with End_of_file -> close_in ic);
  let traces' = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace traces' k (List.rev v)) traces;
  (traces', seeds)

let check seeds_to_check =
  let golden_traces, golden_seeds = load_golden "golden_pr5.digest" in
  let failures = ref 0 in
  let mismatch what exp got =
    incr failures;
    Printf.printf "MISMATCH %s\n  golden: %s\n  now:    %s\n%!" what exp got
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt golden_traces name with
      | None ->
        incr failures;
        Printf.printf "MISMATCH trace %s: not in golden file\n%!" name
      | Some want ->
        let got = trace_lines name in
        if List.length want <> List.length got then
          mismatch
            (Printf.sprintf "%s line count" name)
            (string_of_int (List.length want))
            (string_of_int (List.length got));
        List.iteri
          (fun i w ->
            match List.nth_opt got i with
            | Some g when g = w -> ()
            | g ->
              mismatch
                (Printf.sprintf "%s line %d" name (i + 1))
                w
                (Option.value g ~default:"<missing>"))
          want)
    (corpus_files ());
  Printf.printf "corpus: %d traces replayed\n%!" (List.length (corpus_files ()));
  for i = 0 to seeds_to_check - 1 do
    let seed = seed_base + i in
    match Hashtbl.find_opt golden_seeds seed with
    | None ->
      incr failures;
      Printf.printf "MISMATCH seed %d: not in golden file\n%!" seed
    | Some want ->
      let got = seed_md5 seed in
      if got <> want then mismatch (Printf.sprintf "seed %d" seed) want got
  done;
  Printf.printf "seeds: %d replayed\n%!" seeds_to_check;
  if !failures > 0 then begin
    Printf.printf "columnar gate: %d mismatches\n%!" !failures;
    exit 1
  end;
  print_endline "columnar gate: all digests match"

let () =
  let seeds =
    match Sys.getenv_opt "COLUMNAR_SEEDS" with
    | Some s -> (try int_of_string s with _ -> 60)
    | None -> 60
  in
  match Sys.getenv_opt "COLUMNAR_GOLDEN_REGEN" with
  | Some path -> regen path (max seeds seed_count)
  | None -> check (min seeds seed_count)
