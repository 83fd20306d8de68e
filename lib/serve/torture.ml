module F = Vio_util.Failpoint
module Fsio = Vio_util.Fsio

type config = {
  seeds : int;
  base_seed : int;
  root : string option;
  quiet : bool;
}

let default = { seeds = 9; base_seed = 100; root = None; quiet = false }

type report = {
  t_scenarios : int;
  t_exact : int;
  t_faulted : int;
  t_crashes : int;
  t_violations : (string * string) list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%d scenario(s): %d absorbed exactly, %d surfaced documented faults; %d \
     daemon crash(es) recovered; %d violation(s)"
    r.t_scenarios r.t_exact r.t_faulted r.t_crashes
    (List.length r.t_violations);
  List.iter
    (fun (scenario, what) ->
      Format.fprintf ppf "@.  violation: %s: %s" scenario what)
    r.t_violations

let log cfg msg =
  if not cfg.quiet then begin
    print_string ("[torture] " ^ msg);
    print_newline ();
    flush stdout
  end

(* Mutable campaign tallies; folded into the report at the end. *)
type state = {
  mutable n : int;
  mutable exact : int;
  mutable faulted : int;
  mutable crashes : int;
  mutable violations : (string * string) list;
}

let violation st name fmt =
  Printf.ksprintf (fun s -> st.violations <- (name, s) :: st.violations) fmt

(* The closed set of errors an injected fault is allowed to surface as.
   Anything else reaching a scenario boundary is a robustness bug — the
   fabric found a path that turns a modeled fault into an undocumented
   crash. *)
let documented_exn = function
  | F.Injected _ -> true
  | Recorder.Codec.Malformed _ -> true
  | Verifyio.Estore.Malformed _ -> true
  | Sys_error _ -> true
  | Vio_util.Budget.Exhausted _ -> true
  | Vio_util.Budget.Deadline_exceeded _ -> true
  | _ -> false

(* ---- verdict digests -------------------------------------------------- *)

let m0 = List.hd Verifyio.Model.builtin

let confidence_tag = function
  | Verifyio.Verify.Definite -> "d"
  | Verifyio.Verify.Under_partial_order -> "p"
  | Verifyio.Verify.Under_degradation -> "g"

let outcome_digest (o : Verifyio.Pipeline.outcome) =
  Printf.sprintf "%s;c%d;u%d;n%d;e%d"
    (String.concat ","
       (List.map
          (fun (r : Verifyio.Verify.race) ->
            Printf.sprintf "%d-%d%s" r.Verifyio.Verify.rx r.Verifyio.Verify.ry
              (confidence_tag r.Verifyio.Verify.confidence))
          o.Verifyio.Pipeline.races))
    o.Verifyio.Pipeline.conflicts
    (List.length o.Verifyio.Pipeline.unmatched)
    o.Verifyio.Pipeline.graph_nodes o.Verifyio.Pipeline.graph_edges

let shared_digest pairs =
  String.concat "|"
    (List.map
       (fun ((m : Verifyio.Model.t), o) ->
         m.Verifyio.Model.name ^ ":" ^ outcome_digest o)
       pairs)

(* ---- execution paths under test --------------------------------------- *)

let codec_path ~mode path () =
  let p = Verifyio.Pipeline.prepare_file ~mode path in
  shared_digest [ (m0, Verifyio.Pipeline.verify_prepared ~model:m0 p) ]

(* The isolated scenarios' jobs read their traces on the worker, as serve
   jobs do, so [batch.worker] and [codec.read] faults both land inside a
   job's attempt. *)
let batch_jobs ~bin ~txt =
  let job i path =
    Verifyio.Batch.job ~models:[ m0 ] ~name:(Printf.sprintf "tj%d" i)
      (fun budget -> Verifyio.Pipeline.prepare_file ~budget path)
  in
  [ job 0 bin; job 1 txt; job 2 bin ]

let isolated_path jobs () =
  Verifyio.Batch.run_isolated ~domains:2 ~retries:3 ~backoff_ms:1 jobs
  |> List.map (fun (i : Verifyio.Batch.isolated) ->
         i.Verifyio.Batch.i_job.Verifyio.Batch.name ^ "="
         ^
         match i.Verifyio.Batch.i_status with
         | Verifyio.Batch.Done outcomes -> shared_digest outcomes
         | Verifyio.Batch.Timed_out _ -> "<timed-out>"
         | Verifyio.Batch.Quarantined _ -> "<quarantined>")
  |> String.concat "/"

(* ---- the scenario harness --------------------------------------------- *)

(* What an injected fault is allowed to do to the run:
   - [Exact]: nothing observable — the digest must equal the fault-free
     baseline and no exception may escape (retries and supervisor
     fallbacks absorb the fault);
   - [Documented]: digest-equal, or one of the documented errors;
   - [No_crash]: any digest and any documented error (lenient salvage
     paths legitimately produce different — degraded — verdicts). *)
type klass = Exact | Documented | No_crash

let scenario st ~name ~klass ~baseline ~spec run =
  st.n <- st.n + 1;
  F.clear ();
  (match F.configure spec with
  | Error e -> violation st name "unparsable spec: %s" e
  | Ok () -> (
    match run () with
    | d ->
      if String.equal d baseline then st.exact <- st.exact + 1
      else if klass <> No_crash then
        violation st name "verdict digest diverged from fault-free baseline"
    | exception e ->
      if not (documented_exn e) then
        violation st name "undocumented exception: %s" (Printexc.to_string e)
      else if klass = Exact then
        violation st name "expected full absorption, got %s"
          (Printexc.to_string e)
      else st.faulted <- st.faulted + 1));
  F.clear ()

(* ---- the serve protocol scenarios ------------------------------------- *)

let contains_tmp name =
  let needle = ".tmp." in
  let nn = String.length needle and nh = String.length name in
  let rec go i = i + nn <= nh && (String.sub name i nn = needle || go (i + 1)) in
  go 0

let dir_has_tmp dir =
  Sys.file_exists dir && Sys.is_directory dir
  && Array.exists contains_tmp (Sys.readdir dir)

let cache_has_tmp cache =
  Sys.file_exists cache && Sys.is_directory cache
  && Array.exists
       (fun sub -> dir_has_tmp (Filename.concat cache sub))
       (Sys.readdir cache)

let serve_scenario st ~scratch ~tag ~bin ~txt ~spec
    ?(expect_crash = false) ?(expect_degrade = false) () =
  st.n <- st.n + 1;
  let name = Printf.sprintf "%s/serve/%s" tag spec in
  F.clear ();
  let root = Filename.concat scratch (Printf.sprintf "%s-serve-%d" tag st.n) in
  let spool = Spool.layout root in
  let job trace suffix =
    {
      Spool.id = tag ^ "-job-" ^ suffix;
      trace;
      models = [ m0.Verifyio.Model.name ];
      lenient = false;
      partial = false;
      budget = None;
      timeout_ms = None;
    }
  in
  let jobs = [ job bin "a"; job txt "b" ] in
  List.iter (fun s -> ignore (Spool.submit spool s)) jobs;
  let fresh = List.map (fun s -> (s, Chaos.fresh_entry s m0)) jobs in
  let daemon_cfg =
    {
      (Daemon.default ~root) with
      once = true;
      quiet = true;
      domains = Some 2;
      backoff_ms = 1;
    }
  in
  (match F.configure spec with
  | Error e -> violation st name "unparsable spec: %s" e
  | Ok () ->
    let crashed, store_failures =
      match Daemon.run daemon_cfg with
      | s -> (false, s.Daemon.cache_store_failures)
      | exception e when documented_exn e -> (true, 0)
      | exception e ->
        violation st name "undocumented daemon crash: %s"
          (Printexc.to_string e);
        (true, 0)
    in
    F.clear ();
    if crashed then begin
      st.crashes <- st.crashes + 1;
      st.faulted <- st.faulted + 1
    end
    else st.exact <- st.exact + 1;
    if expect_crash && not crashed then
      violation st name "expected the fault to kill the daemon; it survived";
    if expect_degrade && store_failures = 0 then
      violation st name
        "expected a degraded cache store; the daemon counted no store \
         failure";
    (* The recovery incarnation: fabric off, same root. Its startup
       replay plus spool sweep must restore every invariant. *)
    (match Daemon.run daemon_cfg with
    | _summary -> ()
    | exception e ->
      violation st name "recovery run crashed: %s" (Printexc.to_string e));
    List.iter
      (fun ((s : Spool.jobspec), fresh_bytes) ->
        match Spool.read_response spool ~id:s.Spool.id with
        | Error e ->
          violation st name "%s: no terminal response (%s)" s.Spool.id e
        | Ok r ->
          if r.Spool.r_status <> "done" then
            violation st name "%s: expected done, got %S" s.Spool.id
              r.Spool.r_status
          else (
            match
              List.assoc_opt m0.Verifyio.Model.name r.Spool.r_verdicts
            with
            | None ->
              violation st name "%s: response carries no verdict" s.Spool.id
            | Some doc ->
              if not (String.equal (Cache.render doc) fresh_bytes) then
                violation st name
                  "%s: verdict diverges from a fresh sequential run"
                  s.Spool.id);
          let key =
            Cache.key
              ~trace_sha256:(Vio_util.Sha256.digest_file s.Spool.trace)
              ~model:m0
              ~flags:(Spool.flags_string s)
          in
          (* A failed store legitimately leaves no entry; a present one
             must be byte-identical to ground truth. *)
          (match Cache.lookup ~dir:spool.Spool.cache ~key with
          | Some entry when not (String.equal entry fresh_bytes) ->
            violation st name "%s: cache entry diverges from ground truth"
              s.Spool.id
          | Some _ | None -> ()))
      fresh;
    (match Fsio.files_with_suffix spool.Spool.incoming ~suffix:".job" with
    | [] -> ()
    | l -> violation st name "%d orphan(s) left in incoming/" (List.length l));
    (match Fsio.files_with_suffix spool.Spool.claimed ~suffix:".job" with
    | [] -> ()
    | l -> violation st name "%d orphan(s) left in claimed/" (List.length l));
    if
      dir_has_tmp spool.Spool.incoming
      || dir_has_tmp spool.Spool.responses
      || cache_has_tmp spool.Spool.cache
    then violation st name "staging (.tmp.*) debris survived recovery";
    let final = Journal.replay spool.Spool.journal in
    if final.Journal.unfinished <> [] then
      violation st name "final journal replay reports %d unfinished job(s)"
        (List.length final.Journal.unfinished);
    if not final.Journal.clean_shutdown then
      violation st name "recovery run left no drained marker");
  F.clear ()

(* ---- campaign driver -------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let mk_scratch () =
  let f = Filename.temp_file "viotorture" "" in
  Sys.remove f;
  Fsio.ensure_dir f;
  f

let run cfg =
  if cfg.seeds < 1 then invalid_arg "Torture.run: seeds < 1";
  let st =
    { n = 0; exact = 0; faulted = 0; crashes = 0; violations = [] }
  in
  let scratch, cleanup =
    match cfg.root with
    | Some r ->
      Fsio.ensure_dir r;
      (r, false)
    | None -> (mk_scratch (), true)
  in
  F.clear ();
  Fun.protect
    ~finally:(fun () ->
      F.clear ();
      if cleanup then rm_rf scratch)
  @@ fun () ->
  for s = 0 to cfg.seeds - 1 do
    let seed = cfg.base_seed + s in
    let tag = Printf.sprintf "s%d" seed in
    let program = Viogen.Workload.generate ~max_steps:80 ~seed () in
    let records = Viogen.Workload.run program in
    let nranks = program.Viogen.Workload.nranks in
    let bin = Filename.concat scratch (tag ^ ".viob") in
    let txt = Filename.concat scratch (tag ^ ".vio") in
    Fsio.atomic_write ~path:bin
      (Recorder.Codec.encode_binary ~nranks records);
    Fsio.atomic_write ~path:txt (Recorder.Codec.encode ~nranks records);
    (* Fault-free baselines, one per execution path (fabric cleared). *)
    let strict = Recorder.Diagnostic.Strict in
    let lenient = Recorder.Diagnostic.Lenient in
    let base_bin_strict = codec_path ~mode:strict bin () in
    let base_bin_lenient = codec_path ~mode:lenient bin () in
    let base_txt_strict = codec_path ~mode:strict txt () in
    let jobs = batch_jobs ~bin ~txt in
    let base_isolated = isolated_path jobs () in
    let sc ~klass ~baseline ~path spec run =
      scenario st
        ~name:(Printf.sprintf "%s/%s/%s" tag path spec)
        ~klass ~baseline ~spec run
    in
    (* codec.read over binary v2, strict: data-corrupting policies must
       trip the CRC/footer validation, never decode silently. *)
    let bin_strict = codec_path ~mode:strict bin in
    sc ~klass:Documented ~baseline:base_bin_strict ~path:"bin-strict"
      "codec.read=fail" bin_strict;
    sc ~klass:Exact ~baseline:base_bin_strict ~path:"bin-strict"
      "codec.read=fail@2" bin_strict;
    sc ~klass:Documented ~baseline:base_bin_strict ~path:"bin-strict"
      "codec.read=short:64" bin_strict;
    sc ~klass:Documented ~baseline:base_bin_strict ~path:"bin-strict"
      "codec.read=short:0" bin_strict;
    sc ~klass:Documented ~baseline:base_bin_strict ~path:"bin-strict"
      (Printf.sprintf "codec.read=bitflip:%d" (17 + seed))
      bin_strict;
    sc ~klass:Exact ~baseline:base_bin_strict ~path:"bin-strict"
      "codec.read=delay:1" bin_strict;
    (* codec.read, binary lenient: salvage may degrade the verdict, but
       must stay inside the documented error set. *)
    let bin_lenient = codec_path ~mode:lenient bin in
    sc ~klass:No_crash ~baseline:base_bin_lenient ~path:"bin-lenient"
      "codec.read=short:200" bin_lenient;
    sc ~klass:No_crash ~baseline:base_bin_lenient ~path:"bin-lenient"
      (Printf.sprintf "codec.read=bitflip:%d" (5 + seed))
      bin_lenient;
    sc ~klass:Documented ~baseline:base_bin_lenient ~path:"bin-lenient"
      "codec.read=fail" bin_lenient;
    (* codec.read over text v1: control-flow policies only — the format
       has no checksum, so a corrupting policy could silently produce a
       valid different trace (docs/robustness.md). *)
    let txt_strict = codec_path ~mode:strict txt in
    sc ~klass:Documented ~baseline:base_txt_strict ~path:"text-strict"
      "codec.read=fail" txt_strict;
    sc ~klass:Exact ~baseline:base_txt_strict ~path:"text-strict"
      "codec.read=delay:2" txt_strict;
    (* The isolated batch runner: a transient worker or read fault is
       retried away; a read that cuts every trace short quarantines the
       jobs (malformed, so after one attempt) and never crashes the batch. *)
    sc ~klass:Exact ~baseline:base_isolated ~path:"isolated"
      "batch.worker=fail" (isolated_path jobs);
    sc ~klass:No_crash ~baseline:base_isolated ~path:"isolated"
      (Printf.sprintf "batch.worker=prob:0.2:%d" (11 + seed))
      (isolated_path jobs);
    sc ~klass:Exact ~baseline:base_isolated ~path:"isolated"
      "codec.read=fail@2" (isolated_path jobs);
    sc ~klass:No_crash ~baseline:base_isolated ~path:"isolated"
      "codec.read=short:64" (isolated_path jobs);
    (* The serve protocol: submit, injected-crash incarnation, clean
       recovery incarnation, full crash-safety contract. *)
    let serve ~spec = serve_scenario st ~scratch ~tag ~bin ~txt ~spec in
    serve ~spec:"fsio.atomic_write=fail@2" ~expect_crash:true ();
    serve ~spec:"fsio.atomic_write=fail" ~expect_degrade:true ();
    serve ~spec:"fsio.rename=fail@2" ~expect_crash:true ();
    serve ~spec:"fsio.fsync=fail@3" ~expect_crash:true ();
    serve ~spec:"fsio.append=short:8" ();
    serve ~spec:"fsio.append=fail@4" ~expect_crash:true ();
    serve ~spec:"cache.store=fail" ~expect_degrade:true ();
    serve ~spec:(Printf.sprintf "fsio.fsync=prob:0.6:%d" (77 + seed)) ();
    log cfg
      (Printf.sprintf
         "%s: %d scenario(s) so far, %d crash(es), %d violation(s)"
         tag st.n st.crashes
         (List.length st.violations))
  done;
  {
    t_scenarios = st.n;
    t_exact = st.exact;
    t_faulted = st.faulted;
    t_crashes = st.crashes;
    t_violations = List.rev st.violations;
  }
