(* The verifyio command-line tool.

   Subcommands:
     list             enumerate the evaluation workloads
     run              execute a workload and write its trace to a file
     convert          re-encode a trace file between the text and binary
                      formats
     verify           verify a trace file (or a named workload) against a model
     report           one-line verdict per model, races grouped by call chain
     fuzz             differential fuzzing: generated workloads, every
                      optimized path vs the naive oracle, shrinking repros
     serve            crash-safe verification daemon over a spool directory
     submit           drop a job into a serve spool (optionally wait)
     torture          robustness campaign: sweep every fault site and
                      SIGKILL the daemon, assert the robustness invariants
     models           print the builtin consistency models (paper Table I)
     coverage         print tracer API coverage (paper Table II)
     stats            per-layer/function statistics of a trace
     graph            emit the happens-before graph as Graphviz DOT

   The full reference with worked examples is docs/cli.md.
*)

open Cmdliner

let list_workloads lib_filter =
  let matches (w : Workloads.Harness.t) =
    match lib_filter with
    | None -> true
    | Some l ->
      String.lowercase_ascii (Workloads.Harness.library_name w.library)
      = String.lowercase_ascii l
  in
  List.iter
    (fun (w : Workloads.Harness.t) ->
      if matches w then
        Printf.printf "%-24s %-8s nranks=%d\n" w.Workloads.Harness.name
          (Workloads.Harness.library_name w.library)
          w.nranks)
    Workloads.Registry.all;
  0

let parse_abort_rank = function
  | None -> Ok None
  | Some spec -> (
    match String.split_on_char ':' spec with
    | [ r; n ] -> (
      match (int_of_string_opt r, int_of_string_opt n) with
      | Some r, Some n when r >= 0 && n >= 0 -> Ok (Some (r, n))
      | _ -> Error (Printf.sprintf "bad abort spec %S (want RANK:NCALLS)" spec))
    | _ -> Error (Printf.sprintf "bad abort spec %S (want RANK:NCALLS)" spec))

(* Usage errors (bad flag values, missing files, unknown names) exit 2
   with a one-line diagnostic; see [usage_exit] at the bottom for the
   cmdliner-level equivalent. *)
let usage_error = 2

(* Every subcommand checks its inputs in one [let*] chain: an [Error]
   prints its one-line diagnostic and exits [usage_error]. *)
let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error e ->
    Printf.eprintf "%s\n" e;
    usage_error

let resolve_format = function
  | "text" -> Ok Recorder.Codec.Text
  | "binary" -> Ok Recorder.Codec.Binary
  | f -> Error (Printf.sprintf "unknown trace format %S (text, binary)" f)

let run_workload name out format_name scale abort_spec =
  match
    ( Workloads.Registry.find name,
      parse_abort_rank abort_spec,
      resolve_format format_name )
  with
  | None, _, _ ->
    Printf.eprintf "unknown workload %S (try `verifyio list`)\n" name;
    usage_error
  | _, Error e, _ | _, _, Error e ->
    Printf.eprintf "%s\n" e;
    usage_error
  | Some w, Ok (Some (r, _)), _ when r >= w.Workloads.Harness.nranks ->
    Printf.eprintf "abort rank %d out of range: %s has %d rank(s)\n" r name
      w.Workloads.Harness.nranks;
    usage_error
  | Some w, Ok abort_rank, Ok fmt ->
    let records = Workloads.Harness.run ?scale ?abort_rank w in
    let data = Recorder.Codec.encode_format fmt ~nranks:w.nranks records in
    let path =
      match out with Some p -> p | None -> name ^ ".vio-trace"
    in
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc;
    Printf.printf "wrote %d records to %s\n" (List.length records) path;
    0

let resolve_model name =
  match Verifyio.Model.by_name name with
  | Some m -> Ok m
  | None ->
    let known =
      String.concat ", "
        (List.map
           (fun (m : Verifyio.Model.t) -> m.Verifyio.Model.name)
           (Verifyio.Model.all ()))
    in
    Error (Printf.sprintf "unknown model %S (known: %s)" name known)

(* A --models spec: "all" for the whole registry, or a comma-separated
   list of names/aliases; default is the builtin four. *)
let parse_models = function
  | None -> Ok Verifyio.Model.builtin
  | Some "all" -> Ok (Verifyio.Model.all ())
  | Some spec ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match resolve_model (String.trim n) with
        | Ok m -> go (m :: acc) rest
        | Error e -> Error e)
    in
    go [] (String.split_on_char ',' spec)

let resolve_engine = function
  | "auto" -> Ok None
  | "vector-clock" -> Ok (Some Verifyio.Reach.Vector_clock)
  | "reachability" -> Ok (Some Verifyio.Reach.Bfs_memo)
  | "closure" -> Ok (Some Verifyio.Reach.Transitive_closure)
  | "on-the-fly" -> Ok (Some Verifyio.Reach.On_the_fly)
  | "interval-index" -> Ok (Some Verifyio.Reach.Interval_index)
  | e ->
    Error
      (Printf.sprintf
         "unknown engine %S (auto, vector-clock, reachability, closure, \
          on-the-fly, interval-index)"
         e)

(* Render a Codec.Malformed position, including the byte offset and
   record number when the decoder knows them. *)
let malformed_pos ~line ~byte ~record =
  Printf.sprintf "line %d%s%s" line
    (if byte >= 0 then Printf.sprintf ", byte %d" byte else "")
    (if record >= 0 then Printf.sprintf ", record %d" record else "")

(* The one-line diagnostic every reading subcommand prints for a trace
   it cannot decode. *)
let reading f =
  match f () with
  | v -> Ok v
  | exception Recorder.Codec.Malformed { line; byte; record; reason } ->
    Error
      (Printf.sprintf "cannot read trace (%s): %s"
         (malformed_pos ~line ~byte ~record)
         reason)
  | exception Verifyio.Estore.Malformed reason ->
    Error ("cannot read trace: " ^ reason)
  | exception Failure e -> Error ("cannot read trace: " ^ e)

(* What a reading subcommand works on: a trace file, left on disk for the
   fused streaming path (no Record.t list, either wire format), or
   records with their codec diagnostics — a workload, or any source
   after --inject. *)
type source =
  | File of string
  | Records of int * Recorder.Record.t list * Recorder.Diagnostic.t list

(* Only a path that exists and is not a directory names a trace file; a
   directory is refused as a missing file is. *)
let is_file path = Sys.file_exists path && not (Sys.is_directory path)

let load source =
  if is_file source then Ok (File source)
  else
    match Workloads.Registry.find source with
    | Some w -> Ok (Records (w.nranks, Workloads.Harness.run w, []))
    | None ->
      Error
        (Printf.sprintf "%S is neither a trace file nor a known workload" source)

(* --inject works on encoded bytes, so a workload is encoded first; the
   faulted bytes are decoded in [mode]. *)
let inject ~mode ~plan ~seed src =
  let encoded =
    match src with
    | File path -> Recorder.Codec.read_file path
    | Records (nranks, records, _) -> Recorder.Codec.encode ~nranks records
  in
  let faulted, events = Recorder.Inject.apply plan ~seed encoded in
  (* A zero-rate plan is the identity; stay silent so the output is
     bit-identical to an uninjected run. *)
  if events <> [] then
    Printf.printf "injected %d fault(s) (seed %d)\n" (List.length events) seed;
  reading (fun () ->
      let dec = Recorder.Codec.decode_ext ~mode faulted in
      Records
        ( dec.Recorder.Codec.nranks,
          dec.Recorder.Codec.records,
          dec.Recorder.Codec.diagnostics ))

let store = function
  | File path -> Verifyio.Estore.of_file path
  | Records (nranks, records, _) -> Verifyio.Estore.of_records ~nranks records

let prepare ~engine ~mode ~partial ~budget = function
  | File path ->
    Verifyio.Pipeline.prepare_file ?engine ~mode ~partial ?budget path
  | Records (nranks, records, upstream) ->
    Verifyio.Pipeline.prepare ?engine ~mode ~upstream ~partial ?budget ~nranks
      records

(* Re-encode a trace file in the other (or an explicit) wire format. The
   input format is auto-detected by magic; the decode is strict — a
   convert that silently dropped records would change verdicts. *)
let convert_cmd source out to_format =
  let* () =
    if is_file source then Ok ()
    else Error (Printf.sprintf "no such trace file: %s" source)
  in
  let encoded = Recorder.Codec.read_file source in
  let from_fmt = Recorder.Codec.detect encoded in
  let* to_fmt =
    match to_format with
    | "" ->
      (* Default: flip to the other format. *)
      Ok
        (match from_fmt with
        | Recorder.Codec.Text -> Recorder.Codec.Binary
        | Recorder.Codec.Binary -> Recorder.Codec.Text)
    | f -> resolve_format f
  in
  let* { Recorder.Codec.nranks; records; _ } =
    reading (fun () -> Recorder.Codec.decode_ext encoded)
  in
  let data = Recorder.Codec.encode_format to_fmt ~nranks records in
  let path =
    match out with
    | Some p -> p
    | None -> (
      match to_fmt with
      | Recorder.Codec.Binary -> Filename.remove_extension source ^ ".vtb"
      | Recorder.Codec.Text -> Filename.remove_extension source ^ ".vio-trace")
  in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  Printf.printf "converted %d records (%s -> %s) to %s\n"
    (List.length records)
    (Recorder.Codec.format_name from_fmt)
    (Recorder.Codec.format_name to_fmt)
    path;
  0

let stats_cmd source =
  let* src = load source in
  let* d = reading (fun () -> store src) in
  let module R = Recorder.Record in
  let nranks = Verifyio.Estore.nranks d in
  Printf.printf "%d ranks, %d records\n\n" nranks (Verifyio.Estore.length d);
  let by_layer = Hashtbl.create 8 and by_func = Hashtbl.create 64 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  for i = 0 to Verifyio.Estore.length d - 1 do
    let layer = Verifyio.Estore.layer d i in
    bump by_layer layer;
    bump by_func (R.layer_to_string layer ^ ":" ^ Verifyio.Estore.func d i)
  done;
  Printf.printf "records per layer:\n";
  List.iter
    (fun l ->
      match Hashtbl.find_opt by_layer l with
      | Some n -> Printf.printf "  %-8s %d\n" (R.layer_to_string l) n
      | None -> ())
    R.all_layers;
  let funcs = Hashtbl.fold (fun k v acc -> (v, k) :: acc) by_func [] in
  Printf.printf "\ntop functions:\n";
  List.iteri
    (fun i (n, f) -> if i < 15 then Printf.printf "  %6d  %s\n" n f)
    (List.sort (fun a b -> compare b a) funcs);
  Printf.printf "\nfiles (bytes written/read across ranks):\n";
  let totals = Hashtbl.create 8 in
  for i = 0 to Verifyio.Estore.length d - 1 do
    if Verifyio.Estore.is_data d i then begin
      let fid = Verifyio.Estore.fid d i in
      let w, rd =
        Option.value ~default:(0, 0) (Hashtbl.find_opt totals fid)
      in
      let n = Vio_util.Interval.length (Verifyio.Estore.iv d i) in
      Hashtbl.replace totals fid
        (if Verifyio.Estore.is_write d i then (w + n, rd) else (w, rd + n))
    end
  done;
  List.iter
    (fun (path, fid) ->
      let w, rd = Option.value ~default:(0, 0) (Hashtbl.find_opt totals fid) in
      Printf.printf "  fid %d = %-24s %8d written %8d read\n" fid path w rd)
    (Verifyio.Estore.files d);
  0

let graph_cmd source out =
  let* src = load source in
  let* d = reading (fun () -> store src) in
  let m = Verifyio.Match_mpi.run d in
  let g = Verifyio.Hb_graph.build d m in
  let dot = Verifyio.Hb_graph.to_dot g in
  (match out with
  | Some path ->
    let oc = open_out path in
    output_string oc dot;
    close_out oc;
    Printf.printf "wrote %d nodes, %d edges to %s\n"
      (Verifyio.Hb_graph.size g)
      (Verifyio.Hb_graph.edge_count g)
      path
  | None -> print_string dot);
  0

(* Shared by every command exposing --failpoints: install the fabric
   before any instrumented code runs. A bad spec is a usage error. *)
let apply_failpoints = function
  | None -> Ok ()
  | Some spec -> (
    match Vio_util.Failpoint.configure spec with
    | Ok () -> Ok ()
    | Error e -> Error ("--failpoints: " ^ e))

let verify_cmd failpoints source model_name engine_name all_models limit
    grouped lenient partial budget inject_spec seed =
  let mode =
    if lenient then Recorder.Diagnostic.Lenient else Recorder.Diagnostic.Strict
  in
  let* () = apply_failpoints failpoints in
  let* engine = resolve_engine engine_name in
  let* () =
    match budget with
    | Some b when b < 1 -> Error "budget must be a positive step count"
    | _ -> Ok ()
  in
  let* plan = Recorder.Inject.plan_of_string inject_spec in
  let* src = load source in
  let* src = if plan = [] then Ok src else inject ~mode ~plan ~seed src in
  let* models =
    if all_models then Ok Verifyio.Model.builtin
    else Result.map (fun m -> [ m ]) (resolve_model model_name)
  in
  (* One preparation serves every model, and one budget covers the run:
     the shared stages once, then each model's checks, as for a serve
     job. *)
  let verify_models () =
    let budget = Option.map Vio_util.Budget.create budget in
    let p = prepare ~engine ~mode ~partial ~budget src in
    List.map
      (fun model ->
        let o = Verifyio.Pipeline.verify_prepared ~model p in
        if grouped then print_string (Verifyio.Report.grouped_report o)
        else print_string (Verifyio.Report.race_report ~limit o);
        print_string (Verifyio.Report.unmatched_table o);
        print_string (Verifyio.Report.degradation_report o);
        Printf.printf "engine: %s\n"
          (Verifyio.Reach.engine_name o.Verifyio.Pipeline.engine_used);
        let t = o.Verifyio.Pipeline.timings in
        Printf.printf
          "stages: read %.3fs, conflicts %.3fs, graph %.3fs, engine %.3fs, verify %.3fs\n\n"
          t.Verifyio.Pipeline.t_read t.Verifyio.Pipeline.t_conflicts
          t.Verifyio.Pipeline.t_graph t.Verifyio.Pipeline.t_engine
          t.Verifyio.Pipeline.t_verify;
        Verifyio.Pipeline.exit_code ~lenient ~partial o)
      models
  in
  match reading verify_models with
  | exits ->
    let* exits = exits in
    Verifyio.Pipeline.combine_exits exits
  | exception (Vio_util.Budget.Exhausted _ as e) ->
    Option.iter prerr_endline (Vio_util.Budget.describe e);
    6

(* All-model summary of one source: a line per model plus, with
   [--grouped], the distinct racing call-chain pairs of each racy model.
   Deliberately timing-free so the output is deterministic (cram-locked
   in test/cli_report.t). *)
let report_cmd source engine_name grouped =
  let* engine = resolve_engine engine_name in
  let* src = load source in
  let* outcomes =
    reading (fun () ->
        let p =
          prepare ~engine ~mode:Recorder.Diagnostic.Strict ~partial:false
            ~budget:None src
        in
        List.map
          (fun model -> (model, Verifyio.Pipeline.verify_prepared ~model p))
          Verifyio.Model.builtin)
  in
  (* The decoded store rides along in each outcome, so the header counts
     come from it. *)
  let decoded =
    match outcomes with
    | (_, o) :: _ -> o.Verifyio.Pipeline.decoded
    | [] -> assert false (* Model.builtin is never empty *)
  in
  Printf.printf "%s: %d ranks, %d records\n\n" source
    (Verifyio.Estore.nranks decoded)
    (Verifyio.Estore.length decoded);
  List.iter
    (fun (_, o) -> print_endline (Verifyio.Report.summary_line ~name:source o))
    outcomes;
  let racy =
    List.filter
      (fun (_, (o : Verifyio.Pipeline.outcome)) ->
        o.Verifyio.Pipeline.race_count > 0)
      outcomes
  in
  if grouped && racy <> [] then begin
    print_newline ();
    List.iter
      (fun ((m : Verifyio.Model.t), o) ->
        Printf.printf "--- %s ---\n" m.Verifyio.Model.name;
        print_string (Verifyio.Report.grouped_report o))
      racy
  end;
  let synchronized =
    List.filter_map
      (fun ((m : Verifyio.Model.t), o) ->
        if Verifyio.Pipeline.is_properly_synchronized o then
          Some m.Verifyio.Model.name
        else None)
      outcomes
  in
  print_newline ();
  Printf.printf "properly synchronized under: %s\n"
    (match synchronized with [] -> "(none)" | l -> String.concat ", " l);
  0

(* ---- fuzz: differential testing against the naive oracle ---- *)

(* The conflict-pair count, which every model's oracle verdict shares. *)
let oracle_conflicts = function
  | (_, (v : Verifyio.Oracle.verdict)) :: _ -> v.Verifyio.Oracle.conflicts
  | [] -> 0

(* One deterministic line summarizing a trace's oracle verdicts, printed
   per program (small runs) and per replayed corpus file. *)
let oracle_line ~label ~nranks records oracle =
  Printf.printf "  %s: %d ranks, %d records, %d conflict pair(s), races %s\n"
    label nranks (List.length records) (oracle_conflicts oracle)
    (String.concat "/"
       (List.map
          (fun (_, (v : Verifyio.Oracle.verdict)) ->
            string_of_int (List.length v.Verifyio.Oracle.races))
          oracle))

let racy_verdicts oracle =
  List.length
    (List.filter
       (fun (_, (v : Verifyio.Oracle.verdict)) -> v.Verifyio.Oracle.races <> [])
       oracle)

(* A corpus keeper: a trace whose verdict differs across models (the
   interesting boundary cases) or that left MPI calls unmatched. *)
let corpus_worthy oracle =
  let racy = racy_verdicts oracle in
  racy > 0
  && (racy < List.length oracle
     || List.exists
          (fun (_, (v : Verifyio.Oracle.verdict)) -> v.Verifyio.Oracle.unmatched > 0)
          oracle)

let print_divergences divs =
  List.iter
    (fun d ->
      Format.printf "    %a@." Viogen.Diff.pp_divergence d)
    divs

let fuzz_replay path models =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".vio-trace")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let* () =
    if files = [] then Error (Printf.sprintf "no .vio-trace file in %s" path)
    else Ok ()
  in
  Printf.printf "replay: %s (%d trace(s))\n" path (List.length files);
  let bad = ref 0 in
  List.iter
    (fun f ->
      match Recorder.Codec.decode_ext (Recorder.Codec.read_file f) with
      | exception Recorder.Codec.Malformed { line; byte; record; reason } ->
        incr bad;
        Printf.printf "  %s: cannot decode (%s): %s\n" (Filename.basename f)
          (malformed_pos ~line ~byte ~record)
          reason
      | { Recorder.Codec.nranks; records; _ } ->
        let oracle = Verifyio.Oracle.verify ~models ~nranks records in
        oracle_line ~label:(Filename.basename f) ~nranks records oracle;
        let divs = Viogen.Diff.check ~oracle ~nranks records in
        if divs <> [] then begin
          incr bad;
          print_divergences divs
        end)
    files;
  Printf.printf "replay: %d divergent trace(s) of %d\n" !bad (List.length files);
  if !bad = 0 then 0 else 4

let fuzz_generate seed count smoke shrink save_corpus models profile =
  let count = if smoke then 8 else count in
  Printf.printf "fuzz: seed %d, %d program(s)%s\n" seed count
    (if smoke then " (smoke)" else "");
  Printf.printf "subjects: %s\n"
    (String.concat ", " Viogen.Diff.subject_names);
  let verbose = count <= 20 in
  let total_records = ref 0 in
  let total_pairs = ref 0 in
  let total_racy = ref 0 in
  let divergent = ref [] in
  let saved = ref 0 in
  for i = 0 to count - 1 do
    let s = seed + i in
    let p = Viogen.Workload.generate ~profile ~seed:s () in
    let records = Viogen.Workload.run p in
    let nranks = p.Viogen.Workload.nranks in
    let oracle = Verifyio.Oracle.verify ~models ~nranks records in
    total_records := !total_records + List.length records;
    total_pairs := !total_pairs + oracle_conflicts oracle;
    total_racy := !total_racy + racy_verdicts oracle;
    if verbose then
      oracle_line ~label:(Printf.sprintf "seed %d" s) ~nranks records oracle
    else if (i + 1) mod 100 = 0 then Printf.printf "  %d/%d\n%!" (i + 1) count;
    let divs = Viogen.Diff.check ~oracle ~nranks records in
    if divs <> [] then begin
      divergent := s :: !divergent;
      Printf.printf "  seed %d: DIVERGENCE (%d disagreeing verdict(s))\n" s
        (List.length divs);
      print_divergences divs;
      if shrink then begin
        let interesting q =
          Viogen.Diff.check_program ~models q <> []
        in
        let small = Viogen.Diff.shrink ~interesting p in
        let small_records = Viogen.Workload.run small in
        Printf.printf "  shrunk %d -> %d step(s)\n"
          (List.length p.Viogen.Workload.steps)
          (List.length small.Viogen.Workload.steps);
        let repro = Printf.sprintf "fuzz-repro-%d.vio-trace" s in
        let oc = open_out repro in
        output_string oc
          (Recorder.Codec.encode ~nranks:small.Viogen.Workload.nranks
             small_records);
        close_out oc;
        Printf.printf "  wrote %s (%d records)\n" repro
          (List.length small_records);
        Format.printf "  %a" Viogen.Workload.pp_program small
      end
    end
    else
      match save_corpus with
      | Some dir when corpus_worthy oracle && !saved < 8 ->
        incr saved;
        let path = Filename.concat dir (Printf.sprintf "seed%d.vio-trace" s) in
        let oc = open_out path in
        output_string oc (Recorder.Codec.encode ~nranks records);
        close_out oc;
        Printf.printf "  saved %s\n" path
      | _ -> ()
  done;
  Printf.printf
    "checked %d program(s): %d records, %d oracle conflict pair(s), %d racy \
     verdict(s)\n"
    count !total_records !total_pairs !total_racy;
  Printf.printf "divergences: %d\n" (List.length !divergent);
  if !divergent = [] then 0 else 4

let fuzz_cmd seed count smoke shrink replay save_corpus models_spec
    profile_extended =
  let* models = parse_models models_spec in
  let profile =
    if profile_extended then Viogen.Workload.Extended
    else Viogen.Workload.Classic
  in
  match replay with
  | Some path ->
    if Sys.file_exists path then fuzz_replay path models
    else begin
      Printf.eprintf "no such trace or directory: %s\n" path;
      usage_error
    end
  | None -> fuzz_generate seed count smoke shrink save_corpus models profile

(* ---- verification as a service: serve / submit / torture ---- *)

let absolutize p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let serve_cmd failpoints root domains retries timeout_ms backoff_ms budget hwm
    crash_retries poll_ms once quiet =
  let* () = apply_failpoints failpoints in
  let* () =
    if retries < 0 then Error "retries must be >= 0"
    else if timeout_ms < 1 then
      Error "timeout must be a positive millisecond count"
    else if backoff_ms < 0 then Error "backoff must be >= 0 ms"
    else if hwm < 1 then Error "high-water mark must be >= 1"
    else if crash_retries < 0 then Error "crash-retries must be >= 0"
    else if poll_ms < 1 then Error "poll interval must be >= 1 ms"
    else
      match (budget, domains) with
      | Some b, _ when b < 1 -> Error "budget must be a positive step count"
      | _, Some d when d < 1 -> Error "domains must be >= 1"
      | _ -> Ok ()
  in
  let stop = Atomic.make false in
  let drain _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  let cfg =
    {
      Serve.Daemon.root;
      domains;
      retries;
      timeout_ms;
      backoff_ms;
      default_budget = budget;
      hwm;
      crash_retries;
      poll_ms;
      once;
      quiet;
    }
  in
  let summary = Serve.Daemon.run ~stop cfg in
  if not quiet then Format.printf "[serve] %a@." Serve.Daemon.pp_summary summary;
  0

let submit_cmd root trace id model_name all_models lenient partial budget
    timeout_ms wait wait_ms =
  let* () =
    if not (is_file trace) then
      Error (Printf.sprintf "no such trace file: %s" trace)
    else
      match (budget, timeout_ms) with
      | Some b, _ when b < 1 -> Error "budget must be a positive step count"
      | _, Some t when t < 1 ->
        Error "timeout must be a positive millisecond count"
      | _ -> Ok ()
  in
  let* () = if wait_ms < 1 then Error "wait must be >= 1 ms" else Ok () in
  let* models =
    if all_models then
      Ok
        (List.map
           (fun (m : Verifyio.Model.t) -> m.Verifyio.Model.name)
           Verifyio.Model.builtin)
    else
      Result.map
        (fun (m : Verifyio.Model.t) -> [ m.Verifyio.Model.name ])
        (resolve_model model_name)
  in
  let spool = Serve.Spool.layout root in
  let trace = absolutize trace in
  let spec =
    { Serve.Spool.id = ""; trace; models; lenient; partial; budget; timeout_ms }
  in
  let id =
    match id with
    | Some i -> i
    | None ->
      (* Content-derived default: resubmitting the same trace with the
         same configuration reuses the id (and hence the response slot). *)
      let sha = Vio_util.Sha256.digest_file trace in
      Printf.sprintf "%s-%s"
        (Filename.remove_extension (Filename.basename trace))
        (String.sub
           (Vio_util.Sha256.digest_string
              (sha ^ "\n" ^ Serve.Spool.flags_string spec ^ "\n"
             ^ String.concat "," models))
           0 8)
  in
  let spec = { spec with Serve.Spool.id = id } in
  ignore (Serve.Spool.submit spool spec);
  if not wait then begin
    Printf.printf "submitted %s (response: %s)\n" id
      (Serve.Spool.response_path spool ~id);
    0
  end
  else begin
    let deadline_polls = (wait_ms + 49) / 50 in
    let rec poll n =
      match Serve.Spool.read_response spool ~id with
      | Ok r ->
        Printf.printf "%s: %s%s (exit %d)\n" id r.Serve.Spool.r_status
          (if r.Serve.Spool.r_cached then " (cached)" else "")
          r.Serve.Spool.r_exit;
        (match r.Serve.Spool.r_error with
        | Some e -> Printf.printf "  %s\n" e
        | None -> ());
        r.Serve.Spool.r_exit
      | Error _ when n < deadline_polls ->
        Vio_util.Backoff.sleep_ms 50;
        poll (n + 1)
      | Error _ ->
        Printf.eprintf "no response for %s within %d ms\n" id wait_ms;
        1
    in
    poll 0
  end

let torture_cmd seeds base_seed root smoke quiet =
  let* () = if seeds < 1 then Error "seeds must be >= 1" else Ok () in
  let seeds = if smoke then 1 else seeds in
  let cfg = { Serve.Torture.seeds; base_seed; root; quiet } in
  let r = Serve.Torture.run ~exe:Sys.executable_name cfg in
  Format.printf "[torture] %a@." Serve.Torture.pp_report r;
  if r.Serve.Torture.t_violations = [] then 0 else 4

let models_cmd () =
  print_string (Verifyio.Report.table_models ());
  0

let coverage_cmd () =
  print_string (Verifyio.Report.table_ii ());
  0

(* ---- command definitions ---- *)

let lib_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "library" ] ~docv:"LIB" ~doc:"Filter by library (hdf5|netcdf|pnetcdf).")

let list_term = Term.(const list_workloads $ lib_arg)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace output path.")

let scale_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "scale" ] ~docv:"N" ~doc:"Workload size multiplier.")

let abort_rank_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "abort-rank" ] ~docv:"RANK:NCALLS"
        ~doc:
          "Simulate a crash: the given rank stops at the start of its \
           (NCALLS+1)-th MPI operation, leaving in-flight records in the \
           trace.")

let format_arg =
  Arg.(
    value & opt string "text"
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Trace wire format to write: $(b,text) (the line-oriented v1 \
           format, default) or $(b,binary) (the length-prefixed v2 format \
           — ~2x smaller, ~10x faster to decode). Every reader \
           auto-detects the format by magic; see docs/format.md.")

let run_term =
  Term.(
    const run_workload $ name_arg $ out_arg $ format_arg $ scale_arg
    $ abort_rank_arg)

let convert_to_arg =
  Arg.(
    value & opt string ""
    & info [ "to" ] ~docv:"FMT"
        ~doc:
          "Target format: $(b,text) or $(b,binary). Default: the opposite \
           of the input's (auto-detected) format.")

let source_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE|WORKLOAD"
        ~doc:"A .vio-trace file or the name of a builtin workload.")

let model_arg =
  Arg.(
    value & opt string "POSIX"
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          "Consistency model: any registered name or alias, \
           case-insensitively (POSIX, Commit, Session, MPI-IO, \
           Close-to-open, Commit-PS, MPI-IO-Atomic; $(b,verifyio models) \
           lists the aliases).")

let engine_arg =
  Arg.(
    value & opt string "auto"
    & info [ "e"; "engine"; "reach" ] ~docv:"ENGINE"
        ~doc:
          "Happens-before engine: auto (dynamic selection), vector-clock, \
           reachability, closure, on-the-fly or interval-index.")

let all_models_arg =
  Arg.(value & flag & info [ "a"; "all-models" ] ~doc:"Verify against all four models.")

let limit_arg =
  Arg.(
    value & opt int 10
    & info [ "limit" ] ~docv:"N" ~doc:"Max races to print per model.")

let grouped_arg =
  Arg.(
    value & flag
    & info [ "g"; "grouped" ]
        ~doc:"Aggregate races by call-chain pair instead of listing each.")

let lenient_arg =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:
          "Decode and verify leniently: salvage what a degraded trace still \
           proves instead of failing on the first unreadable byte. Race \
           verdicts touching degraded regions are marked accordingly, and a \
           degradation summary is printed.")

let partial_arg =
  Arg.(
    value & flag
    & info [ "partial-match" ]
        ~doc:
          "Partial MPI matching: record unmatched calls in a structured \
           inventory, drop only the happens-before edges they (or \
           inconsistent matched events) would have contributed, and keep \
           verifying. Verdicts on implicated ranks are downgraded to \
           $(i,under partial order); a race-free run with a nonempty \
           inventory exits 5 (verified modulo unmatched calls).")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"STEPS"
        ~doc:
          "Deterministic step budget for one run — a $(b,verify) \
           invocation or one job (records decoded, conflict pairs, graph \
           edges, nodes, synchronization checks all charge it). One \
           budget covers the shared stages once, then each model's \
           checks. A run that runs out is cut off; $(b,verify) exits 6.")

let retries_arg =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-attempt a job that raised up to N more times before \
           quarantining it (budget timeouts are never retried; they are \
           deterministic).")

let inject_arg =
  Arg.(
    value & opt string ""
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Inject faults into the trace before decoding, e.g. \
           $(b,drop:0.01,truncate:0.3). Kinds: drop, truncate, corrupt, \
           duplicate, strip-epilogue, clobber-table; rates in [0,1]. \
           Deterministic for a fixed $(b,--seed).")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for $(b,--inject).")

let failpoints_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "failpoints" ] ~docv:"SPEC"
        ~doc:
          "Install deterministic fault-injection policies before running, \
           e.g. $(b,codec.read=short:64;fsio.fsync=fail\\@2). Entries are \
           $(i,SITE=POLICY) separated by $(b,;); policies: $(b,off), \
           $(b,fail[\\@N]), $(b,prob:P[:SEED]), $(b,delay:MS), \
           $(b,short:N), $(b,bitflip[:SEED]). Site registry and \
           degradation matrix: docs/robustness.md. Also honored from the \
           $(b,VERIFYIO_FAILPOINTS) environment variable.")

let verify_term =
  Term.(
    const verify_cmd $ failpoints_arg $ source_arg $ model_arg $ engine_arg
    $ all_models_arg $ limit_arg $ grouped_arg $ lenient_arg $ partial_arg
    $ budget_arg $ inject_arg $ seed_arg)

let report_term =
  Term.(
    const report_cmd $ source_arg $ engine_arg $ grouped_arg)

let fuzz_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"Base seed; program i uses seed N+i.")

let fuzz_count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N"
        ~doc:"Number of generated programs (ignored with $(b,--smoke)).")

let fuzz_shrink_arg =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~docv:"BOOL"
        ~doc:
          "On divergence, greedily delete program steps while the divergence \
           persists and write the minimal trace as \
           $(b,fuzz-repro-<seed>.vio-trace) (default true).")

let fuzz_replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"PATH"
        ~doc:
          "Differentially re-verify an existing $(b,.vio-trace) file, or every \
           one in a directory (the committed fuzz corpus), instead of \
           generating programs.")

let fuzz_save_corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-corpus" ] ~docv:"DIR"
        ~doc:
          "Save up to 8 interesting generated traces (model-distinguishing \
           verdicts) into DIR for committing as corpus entries.")

let fuzz_smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "CI-sized run: 8 programs. Deterministic output (locked by a cram \
           test).")

let timeout_ms_opt_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-job wall-clock watchdog in milliseconds (default 60000). \
           Checked cooperatively at the step budget's charge points; an \
           over-deadline job is retried with exponential backoff (wall \
           time is load-dependent, unlike steps) and reported as timed \
           out when the retry allowance is spent.")

let fuzz_models_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "models" ] ~docv:"SPEC"
        ~doc:
          "Models to verify differentially: $(b,all) for the whole registry, \
           or a comma-separated list of registered names or aliases (e.g. \
           $(b,nfs,commit-ps)). Default: the builtin four.")

let fuzz_profile_arg =
  Arg.(
    value & flag
    & info [ "extended" ]
        ~doc:
          "Generate with the extended workload profile: checkpoint/restart \
           cycles, cross-phase producer-consumer handoffs, third-party \
           commits, read-modify-write, truncation, and up to four files — \
           the shapes the extended consistency models distinguish.")

let fuzz_term =
  Term.(
    const fuzz_cmd $ fuzz_seed_arg $ fuzz_count_arg $ fuzz_smoke_arg
    $ fuzz_shrink_arg $ fuzz_replay_arg $ fuzz_save_corpus_arg
    $ fuzz_models_arg $ fuzz_profile_arg)

(* ---- serve / submit argument sets ---- *)

let root_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Spool root directory (created if absent): incoming/, claimed/, \
           responses/, quarantine/, cache/ and journal.jsonl live under it.")

let serve_domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains for the batch waves (default: auto).")

let serve_timeout_arg =
  Arg.(
    value
    & opt int Verifyio.Batch.default_timeout_ms
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-job wall-clock watchdog applied to jobs that do not carry \
           their own (default 60000).")

let backoff_ms_arg =
  Arg.(
    value & opt int 50
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:
          "Base of the exponential backoff between deadline retries \
           (wait MS·2^(k-1) before attempt k+1; 0 disables the wait).")

let hwm_arg =
  Arg.(
    value & opt int 64
    & info [ "hwm" ] ~docv:"N"
        ~doc:
          "Admission high-water mark: submissions beyond this queue depth \
           get a structured overloaded response (exit 8) instead of \
           growing the backlog.")

let crash_retries_arg =
  Arg.(
    value & opt int Serve.Journal.crash_budget
    & info [ "crash-retries" ] ~docv:"N"
        ~doc:
          "Journal-replay crash budget: a job that has taken down N+1 \
           daemon incarnations is quarantined instead of re-enqueued.")

let poll_ms_arg =
  Arg.(
    value & opt int 200
    & info [ "poll-ms" ] ~docv:"MS" ~doc:"Idle sleep between spool scans.")

let once_arg =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"Drain the spool (admit + run until empty), then exit.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-job log lines.")

let serve_term =
  Term.(
    const serve_cmd $ failpoints_arg $ root_arg $ serve_domains_arg
    $ retries_arg $ serve_timeout_arg $ backoff_ms_arg $ budget_arg $ hwm_arg
    $ crash_retries_arg $ poll_ms_arg $ once_arg $ quiet_arg)

let submit_trace_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"The .vio-trace file to verify.")

let submit_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~docv:"ID"
        ~doc:
          "Job id (names the response file). Default: derived from the \
           trace contents and flags, so identical resubmissions share a \
           response slot.")

let wait_arg =
  Arg.(
    value & flag
    & info [ "wait" ]
        ~doc:
          "Poll for the response and exit with the job's verify-style \
           exit code instead of returning immediately.")

let wait_ms_arg =
  Arg.(
    value & opt int 60_000
    & info [ "wait-ms" ] ~docv:"MS"
        ~doc:"Give up waiting after MS milliseconds (exit 1).")

let submit_term =
  Term.(
    const submit_cmd $ root_arg $ submit_trace_arg $ submit_id_arg $ model_arg
    $ all_models_arg $ lenient_arg $ partial_arg $ budget_arg
    $ timeout_ms_opt_arg $ wait_arg $ wait_ms_arg)

let torture_seeds_arg =
  Arg.(
    value & opt int Serve.Torture.default.Serve.Torture.seeds
    & info [ "seeds" ] ~docv:"N"
        ~doc:
          "Workload seeds to sweep; each runs the full per-seed scenario \
           matrix (25 scenarios covering every failpoint site: codec \
           reads, isolated batch jobs and the serve protocol, plus two \
           SIGKILL scenarios against a child daemon).")

let torture_base_seed_arg =
  Arg.(
    value & opt int Serve.Torture.default.Serve.Torture.base_seed
    & info [ "base-seed" ] ~docv:"N"
        ~doc:"First workload seed (seed i of N uses base+i).")

let torture_root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Scratch directory for traces and spool roots (kept afterwards \
           for inspection). Default: a temporary directory, removed when \
           the campaign ends.")

let torture_smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "CI-sized campaign: one seed (25 scenarios: codec reads, \
           isolated batch jobs, the serve protocol, daemon kills), same \
           invariants as the full sweep.")

let torture_term =
  Term.(
    const torture_cmd $ torture_seeds_arg $ torture_base_seed_arg
    $ torture_root_arg $ torture_smoke_arg $ quiet_arg)

let cmd_of term name doc = Cmd.v (Cmd.info name ~doc) Term.(const Fun.id $ term)

(* Cmdliner reports parse failures (unknown flags, malformed option
   values like a non-numeric --seed) with a multi-line usage dump and
   exit 124/125. The supervisor contract wants a one-line diagnostic and
   exit 2, so the error formatter is captured and its first line kept. *)
let usage_exit code err_text =
  if code = 124 || code = 125 then begin
    let line =
      String.split_on_char '\n' err_text
      |> List.find_opt (fun l -> String.trim l <> "")
      |> Option.value ~default:"verifyio: usage error"
    in
    prerr_endline line;
    usage_error
  end
  else begin
    prerr_string err_text;
    code
  end

(* Environment-driven failpoint activation: unlike --failpoints, this
   reaches re-exec'd children and subcommands that do not expose the
   flag. Must run before cmdliner so the fabric is armed for whatever
   the command does. *)
let () =
  match Sys.getenv_opt "VERIFYIO_FAILPOINTS" with
  | None -> ()
  | Some spec -> (
    match Vio_util.Failpoint.configure spec with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "verifyio: VERIFYIO_FAILPOINTS: %s\n" e;
      exit usage_error)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "verifyio" ~version:"1.0.0"
      ~doc:"Trace-driven verification of parallel I/O consistency semantics"
  in
  let cmds =
    [
      cmd_of list_term "list" "List the builtin evaluation workloads";
      cmd_of run_term "run" "Run a workload and save its execution trace";
      cmd_of
        Term.(const convert_cmd $ source_arg $ out_arg $ convert_to_arg)
        "convert" "Re-encode a trace file between the text and binary formats";
      cmd_of verify_term "verify"
        "Verify an execution trace against a consistency model";
      cmd_of report_term "report"
        "Per-model verdict summary of a trace or workload";
      cmd_of fuzz_term "fuzz"
        "Differentially fuzz the verifier against the naive oracle";
      cmd_of serve_term "serve"
        "Run the crash-safe verification daemon over a spool directory";
      cmd_of submit_term "submit"
        "Drop a verification job into a serve spool";
      cmd_of torture_term "torture"
        "Robustness campaign: sweep every fault site and SIGKILL the \
         daemon, assert the robustness invariants";
      cmd_of Term.(const models_cmd $ const ()) "models"
        "Print the builtin consistency models (Table I)";
      cmd_of Term.(const coverage_cmd $ const ()) "coverage"
        "Print tracer API coverage (Table II)";
      cmd_of Term.(const stats_cmd $ source_arg) "stats"
        "Per-layer and per-function statistics of a trace";
      cmd_of Term.(const graph_cmd $ source_arg $ out_arg) "graph"
        "Emit the happens-before graph as Graphviz DOT";
    ]
  in
  let err_buf = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err_buf in
  (* The fatal-error boundary: environment failures that escape every
     structured handler (an unreadable file surfacing as Sys_error, the
     allocator giving up, an injected fault no subsystem absorbed) exit
     with the documented one-line diagnostic and code 2 — never a raw
     backtrace (docs/exit-codes.md). *)
  let code =
    (* ~catch:false: cmdliner would otherwise intercept exceptions first
       and print its own multi-line "internal error" backtrace dump. *)
    try Cmd.eval' ~catch:false ~err:err_fmt (Cmd.group ~default info cmds) with
    | Sys_error e ->
      Printf.eprintf "verifyio: fatal: %s\n" e;
      usage_error
    | Out_of_memory ->
      Printf.eprintf "verifyio: fatal: out of memory\n";
      usage_error
    | Vio_util.Failpoint.Injected _ as e ->
      Printf.eprintf "verifyio: fatal: %s\n" (Printexc.to_string e);
      usage_error
  in
  Format.pp_print_flush err_fmt ();
  exit (usage_exit code (Buffer.contents err_buf))
