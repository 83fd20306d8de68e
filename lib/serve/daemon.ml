module J = Vio_util.Json
module Fsio = Vio_util.Fsio

type config = {
  root : string;
  domains : int option;
  retries : int;
  timeout_ms : int;
  backoff_ms : int;
  default_budget : int option;
  hwm : int;
  crash_retries : int;
  poll_ms : int;
  once : bool;
  quiet : bool;
}

let default ~root =
  {
    root;
    domains = None;
    retries = 1;
    timeout_ms = Verifyio.Batch.default_timeout_ms;
    backoff_ms = 50;
    default_budget = None;
    hwm = 64;
    crash_retries = Journal.crash_budget;
    poll_ms = 200;
    once = false;
    quiet = false;
  }

type summary = {
  cycles : int;
  admitted : int;
  replayed : int;
  completed : int;
  cache_hits : int;
  overloaded : int;
  quarantined : int;
  cache_store_failures : int;
  drained : bool;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "cycles %d, admitted %d, replayed %d, completed %d (%d cached), \
     overloaded %d, quarantined %d%s%s"
    s.cycles s.admitted s.replayed s.completed s.cache_hits s.overloaded
    s.quarantined
    (if s.cache_store_failures > 0 then
       Printf.sprintf ", cache store failures %d" s.cache_store_failures
     else "")
    (if s.drained then ", drained" else "")

(* Mutable counters for one run; folded into the summary at exit. *)
type state = {
  cfg : config;
  spool : Spool.t;
  jn : Journal.t;
  stop : bool Atomic.t;
  mutable pending : (Spool.jobspec * int) list;  (* spec, prior crashes *)
  mutable c_cycles : int;
  mutable c_admitted : int;
  mutable c_replayed : int;
  mutable c_completed : int;
  mutable c_cache_hits : int;
  mutable c_overloaded : int;
  mutable c_quarantined : int;
  mutable c_cache_store_failures : int;
  mutable c_drained : bool;
}

let log st msg =
  if not st.cfg.quiet then begin
    print_string ("[serve] " ^ msg);
    print_newline ();
    flush stdout
  end

let claimed_path st id = Filename.concat st.spool.Spool.claimed (id ^ ".job")

let remove_claimed st id =
  let p = claimed_path st id in
  if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ()

(* Terminal bookkeeping shared by every outcome: response file, journal
   [finished], claimed-file sweep — in exactly that order, so the journal
   never claims a finish whose response is not durably on disk. *)
let finish st (r : Spool.response) =
  Spool.write_response st.spool r;
  Journal.finished st.jn ~id:r.Spool.r_id ~status:r.Spool.r_status;
  remove_claimed st r.Spool.r_id;
  st.c_completed <- st.c_completed + 1

let quarantine_file st (spec : Spool.jobspec) =
  let dst =
    Filename.concat st.spool.Spool.quarantine (spec.Spool.id ^ ".job")
  in
  let src = claimed_path st spec.Spool.id in
  if Sys.file_exists src then (
    try Unix.rename src dst
    with Unix.Unix_error _ ->
      Fsio.atomic_write ~path:dst
        (J.to_string (Spool.jobspec_to_json spec) ^ "\n"))
  else
    Fsio.atomic_write ~path:dst
      (J.to_string (Spool.jobspec_to_json spec) ^ "\n")

let quarantine st (spec : Spool.jobspec) ~attempts ~error =
  quarantine_file st spec;
  st.c_quarantined <- st.c_quarantined + 1;
  log st (Printf.sprintf "%s: quarantined: %s" spec.Spool.id error);
  finish st
    {
      Spool.r_id = spec.Spool.id;
      r_status = "quarantined";
      r_exit = 7;
      r_cached = false;
      r_wall_ms = 0;
      r_attempts = attempts;
      r_error = Some error;
      r_verdicts = [];
    }

(* A job's exit code, from the per-model codes its verdicts carry. *)
let verdicts_exit verdicts =
  Verifyio.Pipeline.combine_exits
    (List.map
       (fun (_, doc) ->
         Option.value ~default:0 (Option.bind (J.member "exit" doc) J.to_int))
       verdicts)

(* A fully cache-resident job: answer without decoding anything. Takes
   the resolved models — keys depend on each model's definition digest,
   so names alone cannot address the cache. *)
let try_cache st ~models ~trace_sha256 ~flags =
  let entries =
    List.map
      (fun (model : Verifyio.Model.t) ->
        let key = Cache.key ~trace_sha256 ~model ~flags in
        (model.Verifyio.Model.name, Cache.lookup ~dir:st.spool.Spool.cache ~key))
      models
  in
  if
    List.for_all (fun (_, e) -> Option.is_some e) entries
  then begin
    let parsed =
      List.map
        (fun (model, e) ->
          match J.of_string (String.trim (Option.get e)) with
          | Ok doc -> (model, doc)
          | Error _ ->
            (* An unreadable entry is treated as a miss by the caller;
               flagged here so we never serve a torn verdict. *)
            (model, J.Null))
        entries
    in
    if List.exists (fun (_, d) -> d = J.Null) parsed then None
    else Some parsed
  end
  else None

let respond_cached st (spec : Spool.jobspec) ~attempts verdicts =
  st.c_cache_hits <- st.c_cache_hits + 1;
  let exit = verdicts_exit verdicts in
  log st (Printf.sprintf "%s: done (cached, exit %d)" spec.Spool.id exit);
  finish st
    {
      Spool.r_id = spec.Spool.id;
      r_status = "done";
      r_exit = exit;
      r_cached = true;
      r_wall_ms = 0;
      r_attempts = attempts;
      r_error = None;
      r_verdicts = verdicts;
    }

type compute = {
  k_spec : Spool.jobspec;
  k_attempt : int;
  k_sha : string;
  k_flags : string;
  k_job : Verifyio.Batch.job;
}

(* Admission: one Budget of [hwm] steps per scan, pre-charged with the
   standing queue depth; each new submission costs a step. The first
   overrun flips the scan into rejection mode — every later submission
   in the same scan gets the structured [overloaded] response. *)
let admit st =
  let files =
    Fsio.files_with_suffix st.spool.Spool.incoming ~suffix:".job"
  in
  if files = [] then 0
  else begin
    let admission = Vio_util.Budget.create (max 1 st.cfg.hwm) in
    (* Claimed files and the in-memory pending list describe the same
       backlog (journal-replayed jobs may lack a claimed file), so the
       standing depth is the larger of the two, not the sum. *)
    let depth =
      max (List.length st.pending) (Spool.pending_depth st.spool)
    in
    (try Vio_util.Budget.spend admission ~stage:"admission" depth
     with Vio_util.Budget.Exhausted _ -> ());
    let admitted = ref 0 in
    List.iter
      (fun file ->
        let path = Filename.concat st.spool.Spool.incoming file in
        let fallback_id = Filename.chop_suffix file ".job" in
        let spec =
          match J.of_string (String.trim (Fsio.read_file path)) with
          | Error e -> Error e
          | Ok doc -> Spool.jobspec_of_json doc
        in
        match spec with
        | Error e ->
          (try Sys.remove path with Sys_error _ -> ());
          log st (Printf.sprintf "%s: rejected: %s" fallback_id e);
          finish st
            {
              Spool.r_id = fallback_id;
              r_status = "rejected";
              r_exit = 2;
              r_cached = false;
              r_wall_ms = 0;
              r_attempts = 0;
              r_error = Some e;
              r_verdicts = [];
            }
        | Ok spec -> (
          match Vio_util.Budget.spend admission ~stage:"admission" 1 with
          | () ->
            Journal.enqueued st.jn ~id:spec.Spool.id
              ~spec:(Spool.jobspec_to_json spec);
            Unix.rename path (claimed_path st spec.Spool.id);
            st.pending <- st.pending @ [ (spec, 0) ];
            incr admitted;
            st.c_admitted <- st.c_admitted + 1;
            log st (Printf.sprintf "%s: admitted" spec.Spool.id)
          | exception Vio_util.Budget.Exhausted _ ->
            (try Sys.remove path with Sys_error _ -> ());
            st.c_overloaded <- st.c_overloaded + 1;
            log st (Printf.sprintf "%s: overloaded" spec.Spool.id);
            finish st
              {
                Spool.r_id = spec.Spool.id;
                r_status = "overloaded";
                r_exit = 8;
                r_cached = false;
                r_wall_ms = 0;
                r_attempts = 0;
                r_error =
                  Some
                    (Printf.sprintf
                       "queue depth at high-water mark %d; resubmit later"
                       st.cfg.hwm);
                r_verdicts = [];
              }))
      files;
    !admitted
  end

(* Compute jobs are dispatched in chunks of roughly one batch-engine
   fill, with every chunk's finishes durably recorded before the next
   chunk starts. A crash therefore loses at most one chunk of work, and
   — because [started] is journalled at chunk dispatch, not wave entry —
   only the jobs actually computing when the crash hit accrue a crash
   count. Journalling the whole wave upfront would let [crash_retries]
   kills quarantine jobs that never got a turn. *)
let chunk_size st =
  max 1
    (match st.cfg.domains with
    | Some d -> d
    | None -> Verifyio.Batch.default_domains ())

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let finish_chunk st chunk isolated =
  List.iter2
    (fun k (i : Verifyio.Batch.isolated) ->
      let spec = k.k_spec in
      let wall_ms = int_of_float (i.Verifyio.Batch.i_wall *. 1000.) in
      match i.Verifyio.Batch.i_status with
      | Verifyio.Batch.Done outcomes ->
        let verdicts =
          List.map
            (fun ((model : Verifyio.Model.t), outcome) ->
              let doc =
                Cache.verdict_json ~flags:k.k_flags ~trace_sha256:k.k_sha
                  ~lenient:spec.Spool.lenient ~partial:spec.Spool.partial
                  ~model outcome
              in
              let key =
                Cache.key ~trace_sha256:k.k_sha
                  ~model ~flags:k.k_flags
              in
              (* The cache is an accelerator, never a correctness
                 dependency: a failed store degrades to recomputing the
                 verdict on the next identical submission. The response
                 below still carries the verdict either way. *)
              (try Cache.store ~dir:st.spool.Spool.cache ~key
                     (Cache.render doc)
               with
              | Sys_error _ | Vio_util.Failpoint.Injected _ ->
                st.c_cache_store_failures <- st.c_cache_store_failures + 1);
              (model.Verifyio.Model.name, doc))
            outcomes
        in
        let exit = verdicts_exit verdicts in
        log st
          (Printf.sprintf "%s: done (%d model(s), exit %d)" spec.Spool.id
             (List.length verdicts) exit);
        finish st
          {
            Spool.r_id = spec.Spool.id;
            r_status = "done";
            r_exit = exit;
            r_cached = false;
            r_wall_ms = wall_ms;
            r_attempts = i.Verifyio.Batch.i_attempts;
            r_error = None;
            r_verdicts = verdicts;
          }
      | Verifyio.Batch.Timed_out { stage; limit; used } ->
        log st (Printf.sprintf "%s: timed out in %s" spec.Spool.id stage);
        finish st
          {
            Spool.r_id = spec.Spool.id;
            r_status = "timed_out";
            r_exit = 6;
            r_cached = false;
            r_wall_ms = wall_ms;
            r_attempts = i.Verifyio.Batch.i_attempts;
            r_error = Some (Printf.sprintf "%s: %d of %d" stage used limit);
            r_verdicts = [];
          }
      | Verifyio.Batch.Quarantined { attempts; error } ->
        quarantine st spec ~attempts ~error)
    chunk isolated

let process_wave st =
  let wave = st.pending in
  st.pending <- [];
  let to_compute = ref [] in
  List.iter
    (fun ((spec : Spool.jobspec), crashes) ->
      let attempt = crashes + 1 in
      match Vio_util.Sha256.digest_file spec.Spool.trace with
      | exception Sys_error e ->
        (* Missing, a directory, or unreadable: the same on every
           restart, so the job ends here rather than crash-looping. *)
        Journal.started st.jn ~id:spec.Spool.id ~attempt;
        quarantine st spec ~attempts:attempt ~error:("unreadable trace: " ^ e)
      | trace_sha256 -> (
        let flags = Spool.flags_string spec in
        let resolved =
          List.map
            (fun name -> (name, Verifyio.Model.by_name name))
            spec.Spool.models
        in
        match List.find_opt (fun (_, m) -> Option.is_none m) resolved with
        | Some (name, _) ->
          Journal.started st.jn ~id:spec.Spool.id ~attempt;
          log st (Printf.sprintf "%s: rejected: unknown model %S"
                    spec.Spool.id name);
          finish st
            {
              Spool.r_id = spec.Spool.id;
              r_status = "rejected";
              r_exit = 2;
              r_cached = false;
              r_wall_ms = 0;
              r_attempts = attempt;
              r_error = Some (Printf.sprintf "unknown model %S" name);
              r_verdicts = [];
            }
        | None -> (
          let models = List.map (fun (_, m) -> Option.get m) resolved in
          match try_cache st ~models ~trace_sha256 ~flags with
          | Some verdicts ->
            Journal.started st.jn ~id:spec.Spool.id ~attempt;
            respond_cached st spec ~attempts:attempt verdicts
          | None ->
            let mode =
              if spec.Spool.lenient then Recorder.Diagnostic.Lenient
              else Recorder.Diagnostic.Strict
            in
            (* The trace streams into the store on the worker, inside the
               job's attempt; a malformed one is quarantined there. *)
            let job =
              Verifyio.Batch.job ~models
                ?budget:
                  (match spec.Spool.budget with
                  | Some _ as b -> b
                  | None -> st.cfg.default_budget)
                ?timeout_ms:spec.Spool.timeout_ms ~name:spec.Spool.id
                (fun budget ->
                  Verifyio.Pipeline.prepare_file ~mode
                    ~partial:spec.Spool.partial ~budget spec.Spool.trace)
            in
            to_compute :=
              { k_spec = spec; k_attempt = attempt; k_sha = trace_sha256;
                k_flags = flags; k_job = job }
              :: !to_compute)))
    wave;
  List.iter
    (fun chunk ->
      List.iter
        (fun k ->
          Journal.started st.jn ~id:k.k_spec.Spool.id ~attempt:k.k_attempt)
        chunk;
      let isolated =
        Verifyio.Batch.run_isolated ?domains:st.cfg.domains
          ~retries:st.cfg.retries ~timeout_ms:st.cfg.timeout_ms
          ~backoff_ms:st.cfg.backoff_ms
          (List.map (fun k -> k.k_job) chunk)
      in
      finish_chunk st chunk isolated)
    (chunks (chunk_size st) (List.rev !to_compute))

let replay_startup st =
  let re = Journal.replay st.spool.Spool.journal in
  (* Claimed files of journalled-terminal jobs are crash debris: the
     finished record was written, only the final sweep was lost. *)
  List.iter (remove_claimed st) re.Journal.finished_ids;
  List.iter
    (fun (p : Journal.pending) ->
      match Spool.jobspec_of_json p.Journal.p_spec with
      | Error e ->
        (* The journalled spec itself is unreadable — synthesize enough
           of one to quarantine the id. *)
        let spec =
          {
            Spool.id = p.Journal.p_id;
            trace = "";
            models = [];
            lenient = false;
            partial = false;
            budget = None;
            timeout_ms = None;
          }
        in
        quarantine st spec ~attempts:p.Journal.p_crashes
          ~error:("unreadable journalled spec: " ^ e)
      | Ok spec ->
        if p.Journal.p_crashes > st.cfg.crash_retries then
          quarantine st spec ~attempts:p.Journal.p_crashes
            ~error:
              (Printf.sprintf
                 "crashed the daemon %d time(s); crash budget is %d"
                 p.Journal.p_crashes st.cfg.crash_retries)
        else begin
          st.pending <- st.pending @ [ (spec, p.Journal.p_crashes) ];
          st.c_replayed <- st.c_replayed + 1
        end)
    re.Journal.unfinished;
  if st.c_replayed > 0 then
    log st
      (Printf.sprintf "replayed %d unfinished job(s) from the journal"
         st.c_replayed)

let run ?(stop = Atomic.make false) cfg =
  let spool = Spool.layout cfg.root in
  let st =
    {
      cfg;
      spool;
      jn = Journal.open_ spool.Spool.journal;
      stop;
      pending = [];
      c_cycles = 0;
      c_admitted = 0;
      c_replayed = 0;
      c_completed = 0;
      c_cache_hits = 0;
      c_overloaded = 0;
      c_quarantined = 0;
      c_cache_store_failures = 0;
      c_drained = false;
    }
  in
  replay_startup st;
  (* Jittered poll (seeded by pid): several daemons watching spools on
     one host drift apart instead of scanning in lockstep. The cap is
     the configured interval, so polling never gets slower than asked. *)
  let poll =
    Vio_util.Backoff.jitter
      ~base_ms:(max 1 (cfg.poll_ms / 2))
      ~cap_ms:(max 1 cfg.poll_ms) ~seed:(Unix.getpid ()) ()
  in
  let rec loop () =
    if Atomic.get st.stop then
      (* In-flight work is always drained before we get here: waves are
         synchronous and the flag is only consulted between them. *)
      st.c_drained <- true
    else begin
      st.c_cycles <- st.c_cycles + 1;
      let admitted_now = admit st in
      let had_wave = st.pending <> [] in
      process_wave st;
      if Atomic.get st.stop then st.c_drained <- true
      else if cfg.once then begin
        if admitted_now > 0 || had_wave then loop ()
      end
      else begin
        Vio_util.Backoff.sleep_ms (Vio_util.Backoff.jitter_ms poll);
        loop ()
      end
    end
  in
  loop ();
  (* Both exit paths — spool drained under [once], [stop] flipped — are
     clean shutdowns: every in-flight job has its finished record, so
     the marker tells replay there is nothing to recover. *)
  Journal.drained st.jn;
  Journal.close st.jn;
  {
    cycles = st.c_cycles;
    admitted = st.c_admitted;
    replayed = st.c_replayed;
    completed = st.c_completed;
    cache_hits = st.c_cache_hits;
    overloaded = st.c_overloaded;
    quarantined = st.c_quarantined;
    cache_store_failures = st.c_cache_store_failures;
    drained = st.c_drained;
  }
