(* An open-loop client of `verifyio serve`, which runs as its own
   process. Jobs are due at evenly spaced times whether or not earlier
   ones were answered, and each is timed from its due time until its
   response file exists. *)

module V = Verifyio
module Spool = Serve.Spool

(* Jobs per second; far below the daemon's capacity and its default
   high-water mark, so that a refusal is a failure, not load shedding. *)
let rate = 40.

(* The daemon's --poll-ms. Its idle sleep is jittered between half this
   and this, so the default 200 ms would dominate every latency. *)
let poll_ms = 2

(* Each trace of the pool is sent this many times per cycle: the first
   time it is verified, the other times it is answered from the result
   cache. With three repeats, p50 lies at the 67th percentile of the
   cache hits and p90 at the 60th of the first-time jobs, away from the
   tails that queueing behind a first-time job adds. At exactly half, p50
   would sit on the boundary between the two and swing with their
   extremes. *)
let sends_per_trace = 4

let cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "verifyio_cli.exe")

let model_names () = List.map (fun (m : V.Model.t) -> m.V.Model.name) (Verif.models ())

let spec ~id (item : Inputs.item) =
  {
    Spool.id;
    trace =
      (if Filename.is_relative item.Inputs.file then
         Filename.concat (Sys.getcwd ()) item.Inputs.file
       else item.Inputs.file);
    models = model_names ();
    lenient = false;
    partial = false;
    budget = None;
    timeout_ms = None;
  }

let start_daemon root =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process (cli ())
      [|
        cli (); "serve"; "--root"; root; "--domains"; "1"; "--poll-ms";
        string_of_int poll_ms; "--quiet";
      |]
      null Unix.stderr Unix.stderr
  in
  Unix.close null;
  pid

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Util.wait_exit pid)

let wait_response spool ~id ~timeout =
  let deadline = Util.now () +. timeout in
  let rec poll () =
    match Spool.read_response spool ~id with
    | Ok r -> r
    | Error _ when Util.now () < deadline ->
      Unix.sleepf 0.0005;
      poll ()
    | Error e -> failwith (Printf.sprintf "no response for %s: %s" id e)
  in
  poll ()

type job = {
  j_id : string;
  j_item : Inputs.item;
  j_due : float;  (** offset from the start of the timed phase *)
  mutable submit0 : float;
  mutable submit1 : float;
  mutable answered : float;
}

(* The seeded schedule: cycles in which every trace of the pool is sent
   [sends_per_trace] times in shuffled order, as many cycles as it takes
   to cover [seconds]. Every run sends the same multiset of traces. *)
let schedule ~seed ~seconds pool =
  let per_cycle = sends_per_trace * List.length pool in
  let cycle_s = float_of_int per_cycle /. rate in
  let cycles = max 1 (int_of_float (Float.ceil (seconds /. cycle_s -. 1e-9))) in
  let copies = List.concat_map (fun i -> List.init sends_per_trace (fun _ -> i)) pool in
  List.concat (List.init cycles (fun c -> Util.shuffle ~seed:((seed * 1000) + c) copies))
  |> List.mapi (fun k item ->
         {
           j_id = Printf.sprintf "job%05d" k;
           j_item = item;
           j_due = float_of_int k /. rate;
           submit0 = 0.;
           submit1 = 0.;
           answered = 0.;
         })

(* Submit every job at its due time; between submissions, look for the
   responses of outstanding jobs. *)
let drive spool jobs ~timeout =
  let t0 = Util.now () in
  let pending = ref [] in
  let rest = ref jobs in
  let deadline = t0 +. timeout in
  while (!rest <> [] || !pending <> []) && Util.now () < deadline do
    let now = Util.now () in
    match !rest with
    | j :: tl when now >= t0 +. j.j_due ->
      j.submit0 <- now;
      ignore (Spool.submit spool (spec ~id:j.j_id j.j_item));
      j.submit1 <- Util.now ();
      pending := j :: !pending;
      rest := tl
    | _ ->
      pending :=
        List.filter
          (fun j ->
            if Sys.file_exists (Spool.response_path spool ~id:j.j_id) then begin
              j.answered <- Util.now ();
              false
            end
            else true)
          !pending;
      Unix.sleepf 0.0002
  done;
  t0

(* Start a daemon on an empty spool and wait for its answer to a
   warm-up job; the daemon is stopped again if that fails. *)
let start ~root ~warm =
  let spool = Spool.layout root in
  let pid = start_daemon root in
  let warm_up () =
    (* The daemon sweeps staging files out of incoming/ before it opens
       its journal: a job staged earlier could vanish mid-submit. *)
    let deadline = Util.now () +. 30. in
    while (not (Sys.file_exists spool.Spool.journal)) && Util.now () < deadline do
      Unix.sleepf 0.0005
    done;
    ignore (Spool.submit spool (spec ~id:"warmup" warm));
    let r = wait_response spool ~id:"warmup" ~timeout:60. in
    if r.Spool.r_status <> "done" then failwith ("warm-up job ended " ^ r.Spool.r_status)
  in
  match warm_up () with
  | () -> (pid, spool)
  | exception e ->
    stop_daemon pid;
    raise e

type served = {
  t0 : float;  (** when the first job was due *)
  peak_rss_mb : float;  (** the daemon's VmHWM *)
  journal_bytes : int;
}

(* Run the schedule against a started daemon, then stop it. *)
let run_jobs ~pid spool jobs ~timeout =
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      let t0 = drive spool jobs ~timeout in
      {
        t0;
        peak_rss_mb = Util.vmhwm_mb (Printf.sprintf "/proc/%d/status" pid);
        journal_bytes = (Unix.stat spool.Spool.journal).Unix.st_size;
      })

let latency_ms s j = Util.ms (j.answered -. (s.t0 +. j.j_due))

(* A fresh in-process verdict per trace, rendered exactly as the daemon
   caches it: the checks the other workloads make, what a traced pass
   compares against, and the documents a response must equal. *)
type expected = { e_check : Outcome.t; e_kept : Verif.kept; e_docs : (string * string) list }

let fresh (item : Inputs.item) =
  let flags = Spool.flags_string (spec ~id:"" item) in
  let sha = Vio_util.Sha256.digest_file item.Inputs.file in
  let p = V.Pipeline.prepare_file item.Inputs.file in
  let outcomes = List.map (fun model -> (model, V.Pipeline.verify_prepared ~model p)) (Verif.models ()) in
  let docs =
    List.map
      (fun ((model : V.Model.t), o) ->
        ( model.V.Model.name,
          Serve.Cache.render
            (Serve.Cache.verdict_json ~flags ~trace_sha256:sha ~lenient:false ~partial:false
               ~model o) ))
      outcomes
  in
  let r = Verif.summarize item outcomes in
  { e_check = Verif.check ~ingest:false r; e_kept = Verif.keep r; e_docs = docs }

(* A done response must carry, byte for byte, the fresh verdict
   documents: this catches stale or torn cache entries. *)
let response_outcome e (r : Spool.response) =
  match Outcome.of_response r with
  | Outcome.Ok ->
    let got = List.map (fun (m, doc) -> (m, Serve.Cache.render doc)) r.Spool.r_verdicts in
    if got <> e.e_docs then Outcome.Wrong_verdict (r.Spool.r_id ^ ": differs from a fresh verdict")
    else e.e_check
  | o -> o

(* Every job's outcome, and the answered jobs' responses kept without
   their parsed verdicts: parsed JSON kept alive would be marked by every
   major collection the verifier triggers. [expected] must cover every
   job's trace. *)
let check_responses spool ~expected jobs =
  let checked =
    List.map
      (fun j ->
        match Spool.read_response spool ~id:j.j_id with
        | Ok r ->
          let o = response_outcome (List.assoc j.j_item expected) r in
          let kept = if j.answered > 0. then Some (j, { r with Spool.r_verdicts = [] }) else None in
          (kept, o)
        | Error _ -> (None, Outcome.Raised (j.j_id ^ ": no response")))
      jobs
  in
  (List.filter_map fst checked, List.map snd checked)

(* Per-layer metrics of the service. Each answered job becomes a span
   from its due time to its response, with the client's submit and the
   daemon's reported compute wall as children; the remainder is waiting
   (poll, queue, admission, journal, detection). *)
let layer_metrics spans ~first_req s jobs (answered : (job * Spool.response) list) =
  let ids =
    List.mapi
      (fun i (j, (r : Spool.response)) ->
        let req = first_req + i in
        let id = Spans.add spans ~req "job" ~t0:(s.t0 +. j.j_due) ~t1:j.answered in
        ignore (Spans.add spans ~parent:id ~req "spool.submit" ~t0:j.submit0 ~t1:j.submit1);
        let wall = float_of_int r.Spool.r_wall_ms /. 1000. in
        ignore
          (Spans.add spans ~parent:id ~req "batch.compute" ~t0:(j.answered -. wall)
             ~t1:j.answered);
        id)
      answered
  in
  let all = Spans.spans spans in
  let self = Spans.self_time all in
  let jobs_spans = List.filter (fun (sp : Spans.span) -> sp.Spans.name = "job") all in
  let waits =
    List.filter_map
      (fun (sp : Spans.span) ->
        if List.mem sp.Spans.id ids then Some (Util.ms (self sp)) else None)
      jobs_spans
  in
  let rs = List.map snd answered in
  let computed = List.filter (fun r -> not r.Spool.r_cached) rs in
  let count l = float_of_int (List.length l) in
  [
    ( "spool.submit_ms_p50",
      Stats.median (List.map (fun (j, _) -> Util.ms (j.submit1 -. j.submit0)) answered) );
    ("daemon.wait_ms_p50", Stats.median waits);
    ( "gen.late_ms_max",
      List.fold_left (fun a j -> Float.max a (Util.ms (j.submit0 -. (s.t0 +. j.j_due)))) 0. jobs
    );
    ("cache.hit_ratio", Util.ratio (count (List.filter (fun r -> r.Spool.r_cached) rs)) (count rs));
    ("batch.compute_ms_p50", Stats.median (List.map (fun r -> float_of_int r.Spool.r_wall_ms) computed));
    ( "batch.retries",
      float_of_int (List.fold_left (fun a r -> a + max 0 (r.Spool.r_attempts - 1)) 0 computed) );
    ("journal.bytes", float_of_int s.journal_bytes);
  ]
