module J = Vio_util.Json
module Fsio = Vio_util.Fsio

type config = {
  root : string;
  exe : string;
  jobs : int;
  kills : int;
  seed : int;
  domains : int option;
  quiet : bool;
}

let default ~root ~exe =
  { root; exe; jobs = 20; kills = 4; seed = 7; domains = None; quiet = false }

type report = {
  total : int;
  done_ : int;
  timed_out : int;
  quarantined : int;
  kills_delivered : int;
  replay_walls : float list;
  warm_cached : int;
  warm_total : int;
  violations : string list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%d job(s): %d done, %d timed out, %d quarantined; %d kill(s) \
     delivered; warm cache %d/%d; %d violation(s)"
    r.total r.done_ r.timed_out r.quarantined r.kills_delivered r.warm_cached
    r.warm_total (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "@.  violation: %s" v) r.violations

let log cfg msg =
  if not cfg.quiet then begin
    print_string ("[chaos] " ^ msg);
    print_newline ();
    flush stdout
  end

let abs p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* One daemon incarnation as a child process. Returns (pid, start). *)
let spawn_daemon cfg =
  let argv =
    [ cfg.exe; "serve"; "--root"; cfg.root; "--once"; "--quiet" ]
    @ (match cfg.domains with
      | Some d -> [ "--domains"; string_of_int d ]
      | None -> [])
  in
  let pid =
    Unix.create_process cfg.exe (Array.of_list argv) Unix.stdin Unix.stdout
      Unix.stderr
  in
  (pid, Unix.gettimeofday ())

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run a child to completion; the exit status and wall are the caller's
   problem to interpret. *)
let run_daemon_to_completion cfg =
  let pid, t0 = spawn_daemon cfg in
  let status = waitpid pid in
  (status, Unix.gettimeofday () -. t0)

(* Job transitions ([started] and [finished] records) in the journal;
   a torn final line does not parse and does not count. *)
let transitions journal =
  match Fsio.read_file journal with
  | exception Sys_error _ -> 0
  | raw ->
    List.fold_left
      (fun n line ->
        match J.of_string line with
        | Ok doc -> (
          match J.member "ev" doc with
          | Some (J.Str ("started" | "finished")) -> n + 1
          | _ -> n)
        | Error _ -> n)
      0
      (String.split_on_char '\n' raw)

(* Spawn, poll the journal every millisecond, and SIGKILL the child once
   it has journalled [after] job transitions. A job writes [started]
   before [finished] (only jobs quarantined at start-up skip it), so with
   [after] at most the number of unfinished jobs, one of them is still
   unfinished then and the kill lands mid-batch however fast the daemon
   works. True when it landed (the child had not already drained the
   spool and exited). *)
let kill_daemon_after cfg ~journal ~after =
  let base = transitions journal in
  let pid, _ = spawn_daemon cfg in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when transitions journal - base < after ->
      Vio_util.Backoff.sleep_ms 1;
      poll ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      waitpid pid = Unix.WSIGNALED Sys.sigkill
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let builtin_names () =
  List.map (fun (m : Verifyio.Model.t) -> m.Verifyio.Model.name)
    Verifyio.Model.builtin

let spec ~id ~trace ?budget () =
  {
    Spool.id;
    trace;
    models = builtin_names ();
    lenient = false;
    partial = false;
    budget;
    timeout_ms = None;
  }

let fresh_entry (s : Spool.jobspec) (model : Verifyio.Model.t) =
  let mode =
    if s.Spool.lenient then Recorder.Diagnostic.Lenient
    else Recorder.Diagnostic.Strict
  in
  let budget = Option.map Vio_util.Budget.create s.Spool.budget in
  let p =
    Verifyio.Pipeline.prepare_file ~mode ~partial:s.Spool.partial ?budget
      s.Spool.trace
  in
  Cache.render
    (Cache.verdict_json ~flags:(Spool.flags_string s)
       ~trace_sha256:(Vio_util.Sha256.digest_file s.Spool.trace)
       ~lenient:s.Spool.lenient ~partial:s.Spool.partial ~model
       (Verifyio.Pipeline.verify_prepared ~model p))

let run cfg =
  if cfg.jobs < 1 then invalid_arg "Chaos.run: jobs < 1";
  if cfg.kills < 0 then invalid_arg "Chaos.run: kills < 0";
  let cfg = { cfg with root = abs cfg.root; exe = abs cfg.exe } in
  let spool = Spool.layout cfg.root in
  let traces = Filename.concat cfg.root "traces" in
  Fsio.ensure_dir traces;
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in

  (* 1. Build and submit the job population. *)
  let gen_specs =
    List.init cfg.jobs (fun i ->
        (* Heavier than the fuzz default: the kills must have real work
           to land in, or the campaign degenerates into killing drained
           daemons. *)
        let program =
          Viogen.Workload.generate ~max_steps:96 ~seed:(cfg.seed + i) ()
        in
        let records = Viogen.Workload.run program in
        let path = Filename.concat traces (Printf.sprintf "trace-%03d.vio" i) in
        Fsio.atomic_write ~path
          (Recorder.Codec.encode ~nranks:program.Viogen.Workload.nranks records);
        spec ~id:(Printf.sprintf "job-%03d" i) ~trace:path ())
  in
  let malformed_path = Filename.concat traces "malformed.vio" in
  Fsio.atomic_write ~path:malformed_path "this is not a verifyio trace\n";
  let malformed_spec = spec ~id:"job-malformed" ~trace:malformed_path () in
  (* A one-step budget exhausts in the first pipeline stage: the
     deterministic Timed_out path. *)
  let budget_spec =
    spec ~id:"job-budget"
      ~trace:(Filename.concat traces "trace-000.vio")
      ~budget:1 ()
  in
  let all_specs = gen_specs @ [ malformed_spec; budget_spec ] in
  List.iter (fun s -> ignore (Spool.submit spool s)) all_specs;
  log cfg
    (Printf.sprintf "submitted %d job(s) (%d generated + malformed + budget)"
       (List.length all_specs) cfg.jobs);

  (* 2. Kill rounds: a seeded-random number of job transitions, then
     SIGKILL. *)
  let rng = Random.State.make [| cfg.seed; 0x51ab |] in
  let kills_delivered = ref 0 in
  for round = 1 to cfg.kills do
    let unfinished =
      List.length
        (List.filter
           (fun (s : Spool.jobspec) ->
             Result.is_error (Spool.read_response spool ~id:s.Spool.id))
           all_specs)
    in
    if unfinished = 0 then
      log cfg (Printf.sprintf "round %d: skipped (spool already drained)" round)
    else begin
      let after = 1 + Random.State.int rng unfinished in
      let landed =
        kill_daemon_after cfg ~journal:spool.Spool.journal ~after
      in
      if landed then incr kills_delivered;
      log cfg
        (Printf.sprintf "round %d: SIGKILL after %d job transition(s)%s" round
           after
           (if landed then "" else " (daemon already drained)"))
    end
  done;
  (* A campaign whose every kill missed checked no recovery at all. *)
  if cfg.kills > 0 && !kills_delivered = 0 then
    violation "none of %d SIGKILL round(s) landed mid-batch" cfg.kills;

  (* 3. The clean run: recovery replay plus whatever work remains. *)
  let status, replay_wall = run_daemon_to_completion cfg in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> violation "clean daemon run exited %d" n
  | Unix.WSIGNALED s -> violation "clean daemon run killed by signal %d" s
  | Unix.WSTOPPED s -> violation "clean daemon run stopped by signal %d" s);
  log cfg (Printf.sprintf "clean run finished in %.3f s" replay_wall);

  (* 4. Validate the crash-safety contract. *)
  let done_ = ref 0 and timed_out = ref 0 and quarantined = ref 0 in
  let done_specs = ref [] in
  List.iter
    (fun (s : Spool.jobspec) ->
      match Spool.read_response spool ~id:s.Spool.id with
      | Error e -> violation "%s: no terminal response (%s)" s.Spool.id e
      | Ok r -> (
        match r.Spool.r_status with
        | "done" ->
          incr done_;
          done_specs := s :: !done_specs;
          let trace_sha256 = Vio_util.Sha256.digest_file s.Spool.trace in
          let flags = Spool.flags_string s in
          List.iter
            (fun (model : Verifyio.Model.t) ->
              let key =
                Cache.key ~trace_sha256 ~model
                  ~flags
              in
              match Cache.lookup ~dir:spool.Spool.cache ~key with
              | None ->
                violation "%s/%s: done but no cache entry" s.Spool.id
                  model.Verifyio.Model.name
              | Some entry ->
                let fresh = fresh_entry s model in
                if not (String.equal entry fresh) then
                  violation
                    "%s/%s: cache entry diverges from fresh sequential run"
                    s.Spool.id model.Verifyio.Model.name)
            Verifyio.Model.builtin
        | "timed_out" -> incr timed_out
        | "quarantined" -> incr quarantined
        | other -> violation "%s: unexpected status %S" s.Spool.id other))
    all_specs;
  (match Spool.read_response spool ~id:malformed_spec.Spool.id with
  | Ok r when r.Spool.r_status = "quarantined" -> ()
  | Ok r ->
    violation "job-malformed: expected quarantined, got %S" r.Spool.r_status
  | Error _ -> ());
  (match Spool.read_response spool ~id:budget_spec.Spool.id with
  | Ok r when r.Spool.r_status = "timed_out" || r.Spool.r_status = "quarantined"
    -> ()
  | Ok r ->
    violation "job-budget: expected timed_out, got %S" r.Spool.r_status
  | Error _ -> ());
  (* No orphans: nothing left in flight anywhere. *)
  (match Fsio.files_with_suffix spool.Spool.incoming ~suffix:".job" with
  | [] -> ()
  | l -> violation "%d orphan(s) left in incoming/" (List.length l));
  (match Fsio.files_with_suffix spool.Spool.claimed ~suffix:".job" with
  | [] -> ()
  | l -> violation "%d orphan(s) left in claimed/" (List.length l));
  let final = Journal.replay spool.Spool.journal in
  if final.Journal.unfinished <> [] then
    violation "journal replay still reports %d unfinished job(s)"
      (List.length final.Journal.unfinished);
  if not final.Journal.clean_shutdown then
    violation "clean daemon run left no drained marker";

  (* 5. Warm resubmission: every done job again, fresh ids — the cache
     must answer all of them without recomputing. *)
  let warm_specs =
    List.rev_map
      (fun (s : Spool.jobspec) ->
        { s with Spool.id = s.Spool.id ^ "-warm" })
      !done_specs
  in
  List.iter (fun s -> ignore (Spool.submit spool s)) warm_specs;
  let warm_status, _ = run_daemon_to_completion cfg in
  (match warm_status with
  | Unix.WEXITED 0 -> ()
  | _ -> violation "warm daemon run did not exit cleanly");
  let warm_cached = ref 0 in
  List.iter
    (fun (s : Spool.jobspec) ->
      match Spool.read_response spool ~id:s.Spool.id with
      | Error e -> violation "%s: no warm response (%s)" s.Spool.id e
      | Ok r ->
        if r.Spool.r_status = "done" && r.Spool.r_cached then
          incr warm_cached
        else
          violation "%s: warm resubmission not served from cache (%s)"
            s.Spool.id r.Spool.r_status)
    warm_specs;
  log cfg
    (Printf.sprintf "warm resubmission: %d/%d from cache" !warm_cached
       (List.length warm_specs));

  {
    total = List.length all_specs;
    done_ = !done_;
    timed_out = !timed_out;
    quarantined = !quarantined;
    kills_delivered = !kills_delivered;
    replay_walls = [ replay_wall ];
    warm_cached = !warm_cached;
    warm_total = List.length warm_specs;
    violations = List.rev !violations;
  }
