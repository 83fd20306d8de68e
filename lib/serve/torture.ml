module F = Vio_util.Failpoint
module Fsio = Vio_util.Fsio
module J = Vio_util.Json

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

(* ---- execution paths under test --------------------------------------- *)

let codec_path ~mode path () =
  let p = Verifyio.Pipeline.prepare_file ~mode path in
  shared_digest [ (m0, Verifyio.Pipeline.verify_prepared ~model:m0 p) ]

(* The isolated scenarios' jobs read their traces on the worker, as serve
   jobs do, so [batch.worker] and [codec.read] faults both land inside a
   job's attempt. The mutated traces are read the way a degraded run is:
   leniently, with partial matching. *)
let batch_jobs ~bin ~txt ~mutated =
  let job i ~mode ~partial path =
    Verifyio.Batch.job ~models:[ m0 ] ~name:(Printf.sprintf "tj%d" i)
      (fun budget ->
        Verifyio.Pipeline.prepare_file ~mode ~partial ~budget path)
  in
  let strict i = job i ~mode:Recorder.Diagnostic.Strict ~partial:false in
  [ strict 0 bin; strict 1 txt; strict 2 bin ]
  @ List.mapi
      (fun i path ->
        job (3 + i) ~mode:Recorder.Diagnostic.Lenient ~partial:true path)
      mutated

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
     baseline and no exception may escape (retries absorb the fault);
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

(* ---- the serve protocol ----------------------------------------------- *)

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

let serve_spec ~id ?budget trace =
  {
    Spool.id;
    trace;
    models = [ m0.Verifyio.Model.name ];
    lenient = false;
    partial = false;
    budget;
    timeout_ms = None;
  }

let daemon_cfg root =
  {
    (Daemon.default ~root) with
    once = true;
    quiet = true;
    domains = Some 2;
    backoff_ms = 1;
  }

(* One in-process incarnation over the spool at [root], with the fabric
   off. After a crash, its startup replay and spool sweep are the
   recovery under test. *)
let clean_run st name root =
  F.clear ();
  match Daemon.run (daemon_cfg root) with
  | _summary -> ()
  | exception e ->
    violation st name "recovery run crashed: %s" (Printexc.to_string e)

(* The recovery contract a crashed daemon's spool is held to once a clean
   incarnation has run over it, whether the daemon died of an injected
   fault or of SIGKILL: every job has a terminal response with its
   expected status; [done] verdicts, and any cache entry present, equal
   [fresh_entry]'s bytes; no job file is left in flight; no staging
   debris survives; and the final journal replay has nothing unfinished
   and ends with the drained marker. *)
let check_recovery st name (spool : Spool.t) expected =
  List.iter
    (fun ((s : Spool.jobspec), status) ->
      match Spool.read_response spool ~id:s.Spool.id with
      | Error e ->
        violation st name "%s: no terminal response (%s)" s.Spool.id e
      | Ok r when r.Spool.r_status <> status ->
        violation st name "%s: expected %s, got %S" s.Spool.id status
          r.Spool.r_status
      | Ok r when status = "done" -> (
        let fresh = fresh_entry s m0 in
        (match List.assoc_opt m0.Verifyio.Model.name r.Spool.r_verdicts with
        | None ->
          violation st name "%s: response carries no verdict" s.Spool.id
        | Some doc when not (String.equal (Cache.render doc) fresh) ->
          violation st name "%s: verdict diverges from a fresh sequential run"
            s.Spool.id
        | Some _ -> ());
        let key =
          Cache.key
            ~trace_sha256:(Vio_util.Sha256.digest_file s.Spool.trace)
            ~model:m0 ~flags:(Spool.flags_string s)
        in
        (* A failed store legitimately leaves no entry; a present one
           must be byte-identical to ground truth. *)
        match Cache.lookup ~dir:spool.Spool.cache ~key with
        | Some entry when not (String.equal entry fresh) ->
          violation st name "%s: cache entry diverges from ground truth"
            s.Spool.id
        | Some _ | None -> ())
      | Ok _ -> ())
    expected;
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
    violation st name "recovery run left no drained marker"

(* Submit, run one incarnation under the injected fault, recover. The two
   jobs are the seed's binary and text traces. *)
let serve_scenario st ~scratch ~tag ~bin ~txt ~spec
    ?(expect_crash = false) ?(expect_degrade = false) () =
  st.n <- st.n + 1;
  let name = Printf.sprintf "%s/serve/%s" tag spec in
  F.clear ();
  let root = Filename.concat scratch (Printf.sprintf "%s-serve-%d" tag st.n) in
  let spool = Spool.layout root in
  let jobs =
    [ serve_spec ~id:(tag ^ "-job-a") bin; serve_spec ~id:(tag ^ "-job-b") txt ]
  in
  List.iter (fun s -> ignore (Spool.submit spool s)) jobs;
  (match F.configure spec with
  | Error e -> violation st name "unparsable spec: %s" e
  | Ok () ->
    let crashed, store_failures =
      match Daemon.run (daemon_cfg root) with
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
    clean_run st name root;
    check_recovery st name spool (List.map (fun s -> (s, "done")) jobs));
  F.clear ()

(* ---- kill scenarios --------------------------------------------------- *)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

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

(* A [serve] child over [root] on one domain. The [delay] policy holds it
   20 ms inside the durability point right after every journal append, so
   a poller that sees a transition sees it with the child parked behind
   it. *)
let spawn_daemon ~exe ~root =
  Unix.create_process exe
    [|
      exe; "serve"; "--root"; root; "--once"; "--quiet"; "--domains"; "1";
      "--failpoints"; "fsio.fsync=delay:20";
    |]
    Unix.stdin Unix.stdout Unix.stderr

(* Spawn a child, poll its journal every millisecond, and SIGKILL it once
   it holds [after] new job transitions. A job journals [started] before
   [finished] (only jobs quarantined at start-up skip it), so with [after]
   at most the number of unfinished jobs the child still has work then.
   [Error] says how the kill missed. *)
let kill_after ~exe ~root ~journal ~after =
  let base = transitions journal in
  let pid = spawn_daemon ~exe ~root in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when transitions journal - base < after ->
      Vio_util.Backoff.sleep_ms 1;
      poll ()
    | 0, _ -> (
      Unix.kill pid Sys.sigkill;
      match waitpid pid with
      | Unix.WSIGNALED s when s = Sys.sigkill ->
        let landed = transitions journal - base in
        if landed = after then Ok ()
        else
          Error
            (Printf.sprintf "SIGKILL landed after %d job transition(s), not %d"
               landed after)
      | _ -> Error "child was not killed by SIGKILL")
    | _ -> Error (Printf.sprintf "child exited before its kill at %d" after)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

(* [kills] children in a row, each SIGKILLed after exactly K journalled
   job transitions (K drawn from the seed, 1 <= K <= unfinished jobs),
   then one clean incarnation in process, held to [check_recovery]. The
   job set adds a malformed trace and a one-step budget to the seed's two
   traces, so the quarantine and timeout paths cross every kill. Last,
   every [done] job is resubmitted under a fresh id, and the cache must
   answer each one. *)
let kill_scenario st ~exe ~scratch ~tag ~seed ~bin ~txt ~kills =
  st.n <- st.n + 1;
  let name = Printf.sprintf "%s/kill/x%d" tag kills in
  F.clear ();
  let root = Filename.concat scratch (Printf.sprintf "%s-kill-%d" tag st.n) in
  let spool = Spool.layout root in
  let malformed = Filename.concat root "malformed.vio" in
  Fsio.atomic_write ~path:malformed "this is not a verifyio trace\n";
  let id what = Printf.sprintf "%s-kill-%s" tag what in
  let expected =
    [
      (serve_spec ~id:(id "bin") bin, "done");
      (serve_spec ~id:(id "txt") txt, "done");
      (serve_spec ~id:(id "malformed") malformed, "quarantined");
      (* A one-step budget runs out in the first stage: the
         deterministic timed-out path. *)
      (serve_spec ~id:(id "budget") ~budget:1 bin, "timed_out");
    ]
  in
  List.iter (fun (s, _) -> ignore (Spool.submit spool s)) expected;
  let rng = Random.State.make [| seed; kills; 0x51ab |] in
  for _ = 1 to kills do
    let unfinished =
      List.length
        (List.filter
           (fun ((s : Spool.jobspec), _) ->
             Result.is_error (Spool.read_response spool ~id:s.Spool.id))
           expected)
    in
    (* No unfinished job is left only after a kill that missed, which is
       already a violation. *)
    if unfinished > 0 then
      let after = 1 + Random.State.int rng unfinished in
      match kill_after ~exe ~root ~journal:spool.Spool.journal ~after with
      | Ok () -> st.crashes <- st.crashes + 1
      | Error e -> violation st name "%s" e
  done;
  st.faulted <- st.faulted + 1;
  clean_run st name root;
  check_recovery st name spool expected;
  let warm =
    List.filter_map
      (fun ((s : Spool.jobspec), status) ->
        if status = "done" then Some { s with Spool.id = s.Spool.id ^ "-warm" }
        else None)
      expected
  in
  List.iter (fun s -> ignore (Spool.submit spool s)) warm;
  clean_run st name root;
  List.iter
    (fun (s : Spool.jobspec) ->
      match Spool.read_response spool ~id:s.Spool.id with
      | Ok r when r.Spool.r_status = "done" && r.Spool.r_cached -> ()
      | Ok r ->
        violation st name "%s: warm resubmission not served from cache (%s)"
          s.Spool.id r.Spool.r_status
      | Error e -> violation st name "%s: no warm response (%s)" s.Spool.id e)
    warm

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

let run ~exe cfg =
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
    let write name data =
      let path = Filename.concat scratch (tag ^ name) in
      Fsio.atomic_write ~path data;
      path
    in
    let bin = write ".viob" (Recorder.Codec.encode_binary ~nranks records) in
    let txt = write ".vio" (Recorder.Codec.encode ~nranks records) in
    (* The seed's program again, mutated as a killed run leaves it: one
       rank aborted mid-run, and one rank's tail cut off. *)
    let abort_rank = ((seed / 3) mod nranks, 1 + ((seed / 7) mod 5)) in
    let mutated =
      [
        write "-abort.vio"
          (Recorder.Codec.encode ~nranks
             (Viogen.Workload.run ~abort_rank program));
        write "-trunc.vio"
          (Recorder.Codec.encode ~nranks
             (fst (Viogen.Mutate.random_truncation ~seed ~nranks records)));
      ]
    in
    (* Fault-free baselines, one per execution path (fabric cleared). *)
    let strict = Recorder.Diagnostic.Strict in
    let lenient = Recorder.Diagnostic.Lenient in
    let base_bin_strict = codec_path ~mode:strict bin () in
    let base_bin_lenient = codec_path ~mode:lenient bin () in
    let base_txt_strict = codec_path ~mode:strict txt () in
    let jobs = batch_jobs ~bin ~txt ~mutated in
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
       strict jobs (malformed, so after one attempt), may degrade the
       lenient ones, and never crashes the batch. *)
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
    (* SIGKILL of a child daemon: once, and twice in a row so a replay is
       itself killed before the recovery. *)
    let kill = kill_scenario st ~exe ~scratch ~tag ~seed ~bin ~txt in
    kill ~kills:1;
    kill ~kills:2;
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
