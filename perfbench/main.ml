(* Entry point of the benchmark; see README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1   one run
     main.exe steady --workload W --runs N                    steadiness
     main.exe smoke                                           toy sizes

   A run prints one JSON result line last on stdout and exits 0 only if
   every verdict check held. The gen and timed subcommands are the
   child processes a run starts. *)

open Perfbench
module J = Vio_util.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload corpus|wide|ingest|serve --seed N --seconds S \
     --trace 0|1\n\
    \       main.exe steady --workload W --runs N\n\
    \       main.exe smoke";
  exit 2

(* --key value pairs plus bare --flags. *)
let parse args =
  let rec go acc = function
    | k :: v :: rest
      when String.starts_with ~prefix:"--" k
           && not (String.starts_with ~prefix:"--" v) ->
      go ((k, v) :: acc) rest
    | k :: rest when String.starts_with ~prefix:"--" k -> go ((k, "") :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let get opts k = match List.assoc_opt k opts with Some v -> v | None -> usage ()

let get_int opts k =
  match int_of_string_opt (get opts k) with Some n -> n | None -> usage ()

let flag opts k = List.mem_assoc k opts

(* The options a user-facing subcommand takes, and no others. *)
let only keys opts = if List.exists (fun (k, _) -> not (List.mem k keys)) opts then usage ()

let workload opts =
  match Inputs.workload_of_name (get opts "--workload") with
  | Some w -> w
  | None -> usage ()

let bench_json = "BENCHMARK.json"

(* ------------------------------------------------------------------ *)
(* Child processes                                                      *)
(* ------------------------------------------------------------------ *)

let gen_main opts =
  Inputs.generate (workload opts) ~seed:(get_int opts "--seed")
    ~smoke:(flag opts "--smoke") ~dir:(get opts "--dir");
  0

let timed_main opts =
  let c =
    Vrun.run ~wl:(workload opts) ~seed:(get_int opts "--seed")
      ~smoke:(flag opts "--smoke") ~dir:(get opts "--dir")
      ~seconds:(float_of_int (get_int opts "--seconds"))
      ~trace:(get opts "--trace" = "1")
      ~warmup_only:(flag opts "--warmup-only")
      ~spans_out:(get opts "--spans")
  in
  Util.write_value (get opts "--out") (c : Vrun.child);
  0

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

let smoke_args smoke = if smoke then [ "--smoke" ] else []

let check_child what code =
  if code <> 0 then failwith (Printf.sprintf "%s process exited with %d" what code)

(* Generate the inputs in one process, then time them in a fresh one;
   set-up is the generation plus the timed process's warm-up. *)
let run_verification ~wl ~seed ~seconds ~trace ~smoke ~work ~spans =
  let name = Inputs.workload_name wl in
  let out = Filename.concat work "child.result" in
  let rec go rep setups =
    (* [setups] holds the earlier repetitions' times, latest first. *)
    let last =
      match List.rev setups with
      | [] -> smoke
      | first :: _ -> rep >= Util.setup_reps ~smoke ~first
    in
    (* Fresh directories per repetition, all deleted after the run. *)
    let dir = Filename.concat work (Printf.sprintf "inputs-%d" rep) in
    let t0 = Util.now () in
    check_child "gen"
      (Util.run_self
         ([ "gen"; "--workload"; name; "--seed"; string_of_int seed; "--dir"; dir ]
         @ smoke_args smoke));
    let t_gen = Util.now () -. t0 in
    let t1 = Util.now () in
    check_child "timed"
      (Util.run_self
         ([
            "timed"; "--workload"; name; "--seed"; string_of_int seed; "--dir"; dir;
            "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
            "--out"; out; "--spans"; spans;
          ]
         @ smoke_args smoke
         @ if last then [] else [ "--warmup-only" ]));
    let c : Vrun.child = Util.read_value out in
    Printf.eprintf "[%s] set-up %d: gen %.3f s, timed process ready %.3f s later\n%!" name rep
      t_gen (c.Vrun.ready -. t1);
    let setups = (t_gen +. (c.Vrun.ready -. t1)) :: setups in
    if last || c.Vrun.errors <> [] then
      {
        Service.setup_s = Stats.median setups;
        tally = c.Vrun.tally;
        errors = c.Vrun.errors;
        metrics = c.Vrun.metrics;
      }
    else go (rep + 1) setups
  in
  go 1 []

let run_workload ~wl ~seed ~seconds ~trace ~smoke =
  let work =
    Filename.concat ".perfbench"
      (Printf.sprintf "%s-%d-%d" (Inputs.workload_name wl) seed (Unix.getpid ()))
  in
  Vio_util.Fsio.ensure_dir work;
  let spans =
    Filename.concat ".perfbench"
      (Printf.sprintf "spans-%s-%d.jsonl" (Inputs.workload_name wl) seed)
  in
  Fun.protect
    ~finally:(fun () -> Util.rm_rf work)
    (fun () ->
      match wl with
      | Inputs.Serve ->
        Service.run ~seed ~seconds ~trace ~smoke ~work ~spans_out:spans
      | _ -> run_verification ~wl ~seed ~seconds ~trace ~smoke ~work ~spans)

(* The declared metrics, in BENCHMARK.json order, with their units; a
   metric the run did not produce is a benchmark bug. *)
let result_line (schema : Schema.t) ~trace (r : Service.result) =
  let declared = if trace then schema.Schema.per_layer else schema.Schema.end_to_end in
  let all = if trace then r.Service.metrics else ("setup_s", r.Service.setup_s) :: r.Service.metrics in
  let missing =
    List.filter (fun (m : Schema.metric) -> not (List.mem_assoc m.Schema.name all)) declared
  in
  if missing <> [] then
    failwith
      ("metrics not produced: "
      ^ String.concat ", " (List.map (fun (m : Schema.metric) -> m.Schema.name) missing));
  let value v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "a metric is not a finite number"
  in
  let metrics =
    List.map
      (fun (m : Schema.metric) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Schema.name
          (value (List.assoc m.Schema.name all))
          m.Schema.unit_)
      declared
  in
  if r.Service.tally.Outcome.attempted < 1 then failwith "no request was attempted";
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.Service.errors = []) r.Service.tally.Outcome.attempted r.Service.tally.Outcome.failed
    (String.concat ", " metrics)

let load_schema () =
  match Schema.load bench_json with
  | Ok s -> s
  | Error e -> failwith (bench_json ^ ": " ^ e)

let bench_main opts =
  only [ "--workload"; "--seed"; "--seconds"; "--trace" ] opts;
  let schema = load_schema () in
  let wl = workload opts and trace = get opts "--trace" = "1" in
  let r =
    run_workload ~wl ~seed:(get_int opts "--seed") ~seconds:(get_int opts "--seconds") ~trace
      ~smoke:false
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.Service.errors;
  Printf.eprintf "%s: attempted %d, failed %d, failed_share %.4f\n"
    (Inputs.workload_name wl) r.Service.tally.Outcome.attempted r.Service.tally.Outcome.failed
    (Outcome.failed_share r.Service.tally);
  print_endline (result_line schema ~trace r);
  if r.Service.errors = [] && r.Service.tally.Outcome.failed = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Steadiness report and smoke mode                                     *)
(* ------------------------------------------------------------------ *)

(* The result line of one run of the declared command, or why there is
   none: the run failed if it exited non-zero or printed no result. *)
let declared_run (schema : Schema.t) ~name ~seed =
  let argv =
    schema.Schema.command
    @ [
        "--workload"; name; "--seed"; string_of_int seed; "--seconds";
        string_of_int schema.Schema.run_seconds; "--trace"; "0";
      ]
  in
  let ic = Unix.open_process_args_in (List.hd argv) (Array.of_list argv) in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  let result =
    match List.rev lines with
    | last :: _ -> (
      match Result.to_option (J.of_string last) with
      | Some j -> Option.map (fun m -> (last, m)) (J.member "metrics" j)
      | None -> None)
    | [] -> None
  in
  match (status, result) with
  | Unix.WEXITED 0, Some r -> Ok r
  | Unix.WEXITED 0, None -> Error "printed no result"
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "exited with %d" c)
  | (Unix.WSIGNALED _ | Unix.WSTOPPED _), _ -> Error "was killed"

(* Run one workload with seeds 1..[runs] through the declared command, and
   report each end-to-end metric's median, quartiles and spread (IQR over
   median) against its bound. Exits 1 if a run failed or a spread is
   outside its bound. *)
let steady_main opts =
  only [ "--workload"; "--runs" ] opts;
  let schema = load_schema () in
  let name = get opts "--workload" in
  let runs = get_int opts "--runs" in
  if runs < 2 then usage ();
  let results =
    List.init runs (fun i ->
        let seed = i + 1 in
        match declared_run schema ~name ~seed with
        | Ok (line, metrics) ->
          Printf.eprintf "seed %d: %s\n%!" seed line;
          Some metrics
        | Error why ->
          Printf.printf "run with seed %d failed: it %s\n%!" seed why;
          None)
  in
  let ok = List.filter_map Fun.id results in
  let failed = runs - List.length ok in
  Printf.printf "%s: %d runs, seeds 1-%d, %d s each, %d failed\n" name runs runs
    schema.Schema.run_seconds failed;
  let outside = ref 0 in
  if List.length ok >= 2 then begin
    Printf.printf "%-16s %12s %12s %12s %8s %7s\n" "metric" "q1" "median" "q3" "iqr/med" "bound";
    List.iter
      (fun (m : Schema.metric) ->
        let values =
          List.map
            (fun j -> Util.num (Option.get (J.member "value" (Option.get (J.member m.Schema.name j)))))
            ok
        in
        let q1, q2, q3 = Stats.quartiles values in
        let spread = Stats.spread values in
        let bound = Option.get m.Schema.bound in
        let flag =
          if spread > bound then (incr outside; "  OUTSIDE")
          else if spread > bound /. 3. then "  above a third"
          else ""
        in
        Printf.printf "%-16s %12.4f %12.4f %12.4f %8.4f %7.3f%s\n" m.Schema.name q1 q2 q3 spread
          bound flag)
      schema.Schema.end_to_end
  end;
  if failed = 0 && !outside = 0 then 0 else 1

let smoke_main () =
  let schema = load_schema () in
  let failures =
    List.filter
      (fun wl ->
        let r = run_workload ~wl ~seed:1 ~seconds:1 ~trace:true ~smoke:true in
        ignore (result_line schema ~trace:true r);
        List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.Service.errors;
        Printf.printf "%-7s attempted %d failed %d setup %.3fs%s\n%!"
          (Inputs.workload_name wl) r.Service.tally.Outcome.attempted r.Service.tally.Outcome.failed
          r.Service.setup_s
          (if r.Service.errors = [] then "" else " CHECKS FAILED");
        r.Service.errors <> [] || r.Service.tally.Outcome.failed > 0)
      Inputs.all_workloads
  in
  if failures = [] then 0 else 1

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "gen" :: rest -> gen_main (parse rest)
    | "timed" :: rest -> timed_main (parse rest)
    | "steady" :: rest -> steady_main (parse rest)
    | [ "smoke" ] -> smoke_main ()
    | rest -> bench_main (parse rest)
  in
  exit code
