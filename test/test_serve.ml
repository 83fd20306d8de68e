(* Tests for the verification service: spool artifacts, the
   content-addressed cache, write-ahead journal replay (including the
   arbitrary-kill-point property), and the daemon loop run in-process. *)

module J = Vio_util.Json
module Fsio = Vio_util.Fsio
module Spool = Serve.Spool
module Cache = Serve.Cache
module Journal = Serve.Journal
module Daemon = Serve.Daemon

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    Fsio.ensure_dir d;
    d

(* ------------------------------------------------------------------ *)
(* Spool artifacts                                                      *)
(* ------------------------------------------------------------------ *)

let spec ?(id = "j1") ?(trace = "/tmp/t.vio") ?(models = [ "POSIX" ])
    ?(lenient = false) ?(partial = false) ?budget ?timeout_ms () =
  { Spool.id; trace; models; lenient; partial; budget; timeout_ms }

let test_jobspec_round_trip () =
  let specs =
    [
      spec ();
      spec ~id:"weird \"id\"\n" ~models:[ "POSIX"; "MPI-IO" ] ~lenient:true
        ~partial:true ~budget:77 ~timeout_ms:1234 ();
    ]
  in
  List.iter
    (fun s ->
      match Spool.jobspec_of_json (Spool.jobspec_to_json s) with
      | Ok s' -> check_bool "round trip" true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  check_bool "garbage rejected" true
    (match Spool.jobspec_of_json (J.Str "nope") with
    | Error _ -> true
    | Ok _ -> false);
  (* Bounds below 1 are refused here, whoever wrote the job file:
     [Spool.submit] does not check them. *)
  List.iter
    (fun s ->
      check_bool "non-positive bound rejected" true
        (Result.is_error (Spool.jobspec_of_json (Spool.jobspec_to_json s))))
    [ spec ~timeout_ms:0 (); spec ~budget:(-3) () ]

let test_response_round_trip () =
  let root = fresh_dir () in
  let t = Spool.layout root in
  let r =
    {
      Spool.r_id = "job-7";
      r_status = "done";
      r_exit = 5;
      r_cached = true;
      r_wall_ms = 12;
      r_attempts = 2;
      r_error = None;
      r_verdicts = [ ("POSIX", J.Obj [ ("races", J.Int 0) ]) ];
    }
  in
  Spool.write_response t r;
  (match Spool.read_response t ~id:"job-7" with
  | Ok r' -> check_bool "round trip" true (r = r')
  | Error e -> Alcotest.fail e);
  check_bool "absent is Error" true
    (match Spool.read_response t ~id:"nope" with
    | Error _ -> true
    | Ok _ -> false)

let test_flags_string () =
  let a = Spool.flags_string (spec ()) in
  let b = Spool.flags_string (spec ~lenient:true ()) in
  let c = Spool.flags_string (spec ~budget:9 ()) in
  (* timeout_ms bounds whether a verdict exists, never its content — it
     must not perturb the cache key. *)
  let d = Spool.flags_string (spec ~timeout_ms:5 ()) in
  check_bool "lenient distinguishes" true (a <> b);
  check_bool "budget distinguishes" true (a <> c);
  check_string "timeout does not" a d;
  (* Nor does the model list: each model's verdict caches separately. *)
  check_string "models do not" a
    (Spool.flags_string (spec ~models:[ "MPI-IO" ] ()))

let test_cache_keys () =
  let posix = Verifyio.Model.posix in
  let key = Cache.key ~trace_sha256:"aaaa" ~model:posix ~flags:"f" in
  check_int "hex key" 64 (String.length key);
  check_bool "model distinguishes" true
    (key
    <> Cache.key ~trace_sha256:"aaaa" ~model:Verifyio.Model.mpi_io ~flags:"f");
  check_bool "trace distinguishes" true
    (key <> Cache.key ~trace_sha256:"bbbb" ~model:posix ~flags:"f");
  check_bool "flags distinguish" true
    (key <> Cache.key ~trace_sha256:"aaaa" ~model:posix ~flags:"g");
  let dir = fresh_dir () in
  check_bool "miss" true (Cache.lookup ~dir ~key = None);
  Cache.store ~dir ~key "payload\n";
  check_bool "hit" true (Cache.lookup ~dir ~key = Some "payload\n")

(* The registry regression: two models under the SAME name whose MSC
   definitions differ must key differently, so redefining a custom model
   can never resurface verdicts cached under the old definition. *)
let test_cache_key_tracks_definition () =
  let module VM = Verifyio.Model in
  let mk shapes =
    VM.make ~name:"Custom" ~sync_set:[ "s" ] ~msc_desc:"-hb-> s -hb->"
      ~mscs:
        [ { VM.edges = [ VM.Hb; VM.Hb ]; syncs = [ VM.pred ~name:"s" shapes ] } ]
      ()
  in
  let v1 = mk [ { VM.sh_class = `Sync; sh_api = None } ] in
  let v2 = mk [ { VM.sh_class = `Close; sh_api = None } ] in
  let k1 = Cache.key ~trace_sha256:"aaaa" ~model:v1 ~flags:"f" in
  let k2 = Cache.key ~trace_sha256:"aaaa" ~model:v2 ~flags:"f" in
  check_bool "same name, different MSC, different key" true (k1 <> k2);
  let dir = fresh_dir () in
  Cache.store ~dir ~key:k1 "stale\n";
  check_bool "old definition still hits" true
    (Cache.lookup ~dir ~key:k1 = Some "stale\n");
  check_bool "redefined model misses" true (Cache.lookup ~dir ~key:k2 = None)

(* ------------------------------------------------------------------ *)
(* Journal replay: the arbitrary-kill-point property                    *)
(* ------------------------------------------------------------------ *)

type ev = Enq of int | Start of int | Fin of int

(* Generate a valid lifecycle over [njobs] jobs from random (job, kind)
   pulses: the first pulse for a job enqueues it, later pulses start or
   finish it, and a pulse for a finished job re-enqueues it (crash
   recovery does exactly this). Validity holds by construction. *)
let lifecycle njobs pulses =
  let enqueued = Array.make njobs false in
  let finished = Array.make njobs false in
  List.filter_map
    (fun (j, kind) ->
      let j = j mod njobs in
      if not enqueued.(j) then begin
        enqueued.(j) <- true;
        Some (Enq j)
      end
      else if finished.(j) then begin
        finished.(j) <- false;
        Some (Enq j)
      end
      else if kind = 0 then begin
        finished.(j) <- true;
        Some (Fin j)
      end
      else Some (Start j))
    pulses

let id_of j = Printf.sprintf "job-%02d" j

let spec_of j = J.Obj [ ("job", J.Int j) ]

let write_journal path evs =
  let t = Journal.open_ path in
  List.iter
    (fun ev ->
      match ev with
      | Enq j -> Journal.enqueued t ~id:(id_of j) ~spec:(spec_of j)
      | Start j -> Journal.started t ~id:(id_of j) ~attempt:1
      | Fin j -> Journal.finished t ~id:(id_of j) ~status:"done")
    evs;
  Journal.close t

(* The independent model: fold only the events whose journal line is
   fully inside the kept prefix. Each appended line is exactly
   [to_string ~indent:0 doc ^ "\n"], so line boundaries are
   reconstructible from the events alone. *)
let durable_prefix evs ~cut =
  let line ev =
    let doc =
      match ev with
      | Enq j ->
        J.Obj [ ("ev", J.Str "enqueued"); ("id", J.Str (id_of j));
                ("spec", spec_of j) ]
      | Start j ->
        J.Obj [ ("ev", J.Str "started"); ("id", J.Str (id_of j));
                ("attempt", J.Int 1) ]
      | Fin j ->
        J.Obj [ ("ev", J.Str "finished"); ("id", J.Str (id_of j));
                ("status", J.Str "done") ]
    in
    String.length (J.to_string ~indent:0 doc) + 1
  in
  let rec go acc off = function
    | [] -> List.rev acc
    | ev :: rest ->
      let off' = off + line ev in
      if off' <= cut then go (ev :: acc) off' rest else List.rev acc
  in
  go [] 0 evs

let expected_state durable =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ev ->
      let upd j f =
        let cur =
          match Hashtbl.find_opt tbl j with
          | Some s -> s
          | None ->
            order := j :: !order;
            (false, true, 0)
          (* enqueued, terminal, crashes *)
        in
        Hashtbl.replace tbl j (f cur)
      in
      match ev with
      | Enq j -> upd j (fun (_, _, c) -> (true, false, c))
      | Start j -> upd j (fun (e, t, c) -> (e, t, c + 1))
      | Fin j -> upd j (fun (e, _, c) -> (e, true, c)))
    durable;
  let pending =
    List.filter_map
      (fun j ->
        match Hashtbl.find_opt tbl j with
        | Some (true, false, crashes) -> Some (id_of j, crashes)
        | _ -> None)
      (List.rev !order)
  in
  pending

let prop_journal_kill_point =
  QCheck2.Test.make
    ~name:
      "journal: replay after a cut at any byte re-enqueues exactly the \
       unfinished jobs" ~count:150
    QCheck2.Gen.(
      triple (int_range 1 6)
        (list_size (int_range 0 30) (pair (int_range 0 5) (int_range 0 2)))
        (float_range 0. 1.))
    (fun (njobs, pulses, cutf) ->
      let evs = lifecycle njobs pulses in
      let dir = fresh_dir () in
      let path = Filename.concat dir "journal.jsonl" in
      write_journal path evs;
      let full = Fsio.read_file path in
      let cut = int_of_float (cutf *. float_of_int (String.length full)) in
      let torn = String.sub full 0 cut in
      let torn_path = Filename.concat dir "torn.jsonl" in
      let oc = open_out_bin torn_path in
      output_string oc torn;
      close_out oc;
      let re = Journal.replay torn_path in
      let got =
        List.map
          (fun (p : Journal.pending) -> (p.Journal.p_id, p.Journal.p_crashes))
          re.Journal.unfinished
      in
      let expected = expected_state (durable_prefix evs ~cut) in
      let ids = List.map fst got in
      (* exactly the unfinished set, in enqueue order, no duplicates,
         with crash counts accumulated across re-enqueues *)
      got = expected
      && List.sort_uniq compare ids = List.sort compare ids)

let test_journal_replay_basics () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.jsonl" in
  check_bool "absent journal is empty" true
    ((Journal.replay path).Journal.unfinished = []);
  let t = Journal.open_ path in
  Journal.enqueued t ~id:"a" ~spec:(J.Str "sa");
  Journal.started t ~id:"a" ~attempt:1;
  Journal.enqueued t ~id:"b" ~spec:(J.Str "sb");
  Journal.finished t ~id:"a" ~status:"done";
  Journal.drained t;
  Journal.close t;
  let re = Journal.replay path in
  check_bool "a finished" true (re.Journal.finished_ids = [ "a" ]);
  (match re.Journal.unfinished with
  | [ p ] ->
    check_string "b pending" "b" p.Journal.p_id;
    check_int "b never started" 0 p.Journal.p_crashes;
    check_bool "spec preserved" true (p.Journal.p_spec = J.Str "sb")
  | l -> Alcotest.fail (Printf.sprintf "%d pending" (List.length l)));
  check_bool "clean shutdown seen" true re.Journal.clean_shutdown;
  check_bool "no torn tail" true (not re.Journal.torn_tail)

let test_journal_torn_tail () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.jsonl" in
  let t = Journal.open_ path in
  Journal.enqueued t ~id:"a" ~spec:J.Null;
  Journal.finished t ~id:"a" ~status:"done";
  Journal.close t;
  let full = Fsio.read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 3));
  close_out oc;
  let re = Journal.replay path in
  check_bool "torn tail flagged" true re.Journal.torn_tail;
  (* The torn finished line never took effect: a is in-flight again. *)
  check_int "a re-enqueued" 1 (List.length re.Journal.unfinished)

module F = Vio_util.Failpoint

(* A crash can tear more than the final record: under
   [fsio.append=short:8] every append lands 8 bytes and no newline, so
   consecutive records merge into one garbage tail. Replay must treat
   the whole span as never-happened, and — the part a naive append-mode
   reopen gets wrong — the next incarnation must terminate that tail
   before its own first record, or the record merges into the garbage
   and is lost to every later replay. *)
let test_journal_torn_tail_multi_record () =
  F.clear ();
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.jsonl" in
  let t = Journal.open_ path in
  Journal.enqueued t ~id:"a" ~spec:J.Null;
  Journal.started t ~id:"a" ~attempt:1;
  (match F.configure "fsio.append=short:8" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Journal.finished t ~id:"a" ~status:"done";
  Journal.enqueued t ~id:"b" ~spec:J.Null;
  F.clear ();
  Journal.close t;
  let re = Journal.replay path in
  check_bool "torn tail flagged" true re.Journal.torn_tail;
  check_bool "torn finish never took effect" true
    (re.Journal.finished_ids = []);
  (match re.Journal.unfinished with
  | [ p ] ->
    check_string "a still in flight" "a" p.Journal.p_id;
    check_int "crash counted" 1 p.Journal.p_crashes
  | l -> Alcotest.fail (Printf.sprintf "%d pending" (List.length l)));
  let t = Journal.open_ path in
  Journal.finished t ~id:"a" ~status:"done";
  Journal.enqueued t ~id:"c" ~spec:J.Null;
  Journal.close t;
  let re = Journal.replay path in
  check_bool "reopen terminated the garbage tail" true
    (not re.Journal.torn_tail);
  check_bool "post-recovery finish visible" true
    (re.Journal.finished_ids = [ "a" ]);
  (match re.Journal.unfinished with
  | [ p ] -> check_string "c pending" "c" p.Journal.p_id
  | l ->
    Alcotest.fail (Printf.sprintf "%d pending after reopen" (List.length l)))

(* ------------------------------------------------------------------ *)
(* Daemon in-process: verdict byte-identity and recovery behaviors      *)
(* ------------------------------------------------------------------ *)

let write_trace dir i seed =
  let program = Viogen.Workload.generate ~seed () in
  let records = Viogen.Workload.run program in
  let path = Filename.concat dir (Printf.sprintf "t%d.vio" i) in
  Fsio.atomic_write ~path
    (Recorder.Codec.encode ~nranks:program.Viogen.Workload.nranks records);
  path

let daemon_cfg root =
  { (Daemon.default ~root) with Daemon.once = true; quiet = true }

let model_names () =
  List.map (fun (m : Verifyio.Model.t) -> m.Verifyio.Model.name)
    Verifyio.Model.builtin

(* A submit whose publishing rename fails leaves its staged [.tmp.*]
   file behind — the deliberate debris of stage-then-rename. The next
   [Spool.layout] must sweep it (incoming and cache shards alike), and
   the spool must be fully usable afterwards. *)
let test_spool_tmp_survivor_recovery () =
  F.clear ();
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let trace = write_trace root 0 11 in
  let spec id =
    {
      Spool.id;
      trace;
      models = model_names ();
      lenient = false;
      partial = false;
      budget = None;
      timeout_ms = None;
    }
  in
  (match F.configure "fsio.rename=fail" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Spool.submit spool (spec "victim") with
  | _ -> Alcotest.fail "publishing rename did not fail"
  | exception F.Injected { site; _ } ->
    check_string "rename site fired" "fsio.rename" site);
  F.clear ();
  let is_tmp name =
    let n = String.length name in
    let rec go i = i + 5 <= n && (String.sub name i 5 = ".tmp." || go (i + 1)) in
    go 0
  in
  let debris dir = List.filter is_tmp (Array.to_list (Sys.readdir dir)) in
  check_bool "staged .tmp survived the failed submit" true
    (debris spool.Spool.incoming <> []);
  let shard = Filename.concat spool.Spool.cache "ab" in
  Fsio.ensure_dir shard;
  let oc = open_out (Filename.concat shard "entry.json.tmp.1.1") in
  close_out oc;
  let spool = Spool.layout root in
  check_bool "startup sweep removed incoming debris" true
    (debris spool.Spool.incoming = []);
  check_bool "startup sweep removed cache-shard debris" true
    (debris shard = []);
  ignore (Spool.submit spool (spec "job-1"));
  let s = Daemon.run (daemon_cfg root) in
  check_int "resubmitted job drained" 1 s.Daemon.completed;
  check_bool "response is terminal" true
    (match Spool.read_response spool ~id:"job-1" with
    | Ok r -> r.Spool.r_status = "done"
    | Error _ -> false)

(* The byte-identity contract, in-process: every cache entry the daemon
   writes equals the fresh sequential reference ([Torture.fresh_entry]).
   (The torture campaign checks the same property across kills and child
   processes; this is the deterministic fast path.) *)
let test_daemon_cache_byte_identity () =
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let specs =
    List.init 3 (fun i ->
        spec
          ~id:(Printf.sprintf "job-%d" i)
          ~trace:(write_trace root i (100 + i))
          ~models:(model_names ()) ())
  in
  List.iter (fun s -> ignore (Spool.submit spool s)) specs;
  let summary = Daemon.run (daemon_cfg root) in
  check_int "all completed" 3 summary.Daemon.completed;
  check_bool "drained cleanly" true (not summary.Daemon.drained);
  List.iter
    (fun (s : Spool.jobspec) ->
      let trace_sha256 = Vio_util.Sha256.digest_file s.Spool.trace in
      let flags = Spool.flags_string s in
      List.iter
        (fun (model : Verifyio.Model.t) ->
          let key =
            Cache.key ~trace_sha256 ~model ~flags
          in
          let entry =
            match Cache.lookup ~dir:spool.Spool.cache ~key with
            | Some e -> e
            | None -> Alcotest.fail ("no cache entry for " ^ s.Spool.id)
          in
          check_string
            (Printf.sprintf "%s/%s bytes" s.Spool.id
               model.Verifyio.Model.name)
            (Serve.Torture.fresh_entry s model)
            entry)
        Verifyio.Model.builtin)
    specs

let test_daemon_cache_hit_and_statuses () =
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let trace = write_trace root 0 42 in
  let good = spec ~id:"good" ~trace ~models:(model_names ()) () in
  let bad_path = Filename.concat root "bad.vio" in
  Fsio.atomic_write ~path:bad_path "not a trace\n";
  let bad = spec ~id:"bad" ~trace:bad_path () in
  let hog = spec ~id:"hog" ~trace ~budget:1 () in
  let missing = spec ~id:"missing" ~trace:(Filename.concat root "gone.vio") () in
  let dir_trace = Filename.concat root "a-dir.vio" in
  Fsio.ensure_dir dir_trace;
  let dir = spec ~id:"dir" ~trace:dir_trace () in
  let unknown = spec ~id:"unknown" ~trace ~models:[ "NotAModel" ] () in
  let zero_timeout = spec ~id:"zero-timeout" ~trace ~timeout_ms:0 () in
  let negative_budget = spec ~id:"negative-budget" ~trace ~budget:(-3) () in
  List.iter
    (fun s -> ignore (Spool.submit spool s))
    [ good; bad; hog; missing; dir; unknown; zero_timeout; negative_budget ];
  let summary = Daemon.run (daemon_cfg root) in
  check_int "all terminal" 8 summary.Daemon.completed;
  let response id =
    match Spool.read_response spool ~id with
    | Ok r -> r
    | Error e -> Alcotest.fail (id ^ ": " ^ e)
  in
  let status id =
    let r = response id in
    (r.Spool.r_status, r.Spool.r_exit, r.Spool.r_cached)
  in
  let good_status, good_exit, good_cached = status "good" in
  check_string "good done" "done" good_status;
  check_bool "good computed fresh" false good_cached;
  check_bool "good exit is a verify code" true
    (good_exit = 0 || good_exit = 2 || good_exit = 5);
  check_bool "bad quarantined" true (status "bad" = ("quarantined", 7, false));
  check_bool "hog timed out" true (status "hog" = ("timed_out", 6, false));
  (* A trace the daemon cannot hash fails the same way on every
     restart, so it is quarantined instead of crashing the daemon. *)
  List.iter
    (fun id ->
      check_bool (id ^ " quarantined") true
        (status id = ("quarantined", 7, false));
      check_bool (id ^ ": the read error is named") true
        (match (response id).Spool.r_error with
        | Some e -> String.starts_with ~prefix:"unreadable trace: " e
        | None -> false))
    [ "missing"; "dir" ];
  check_bool "unknown rejected" true
    (status "unknown" = ("rejected", 2, false));
  check_bool "zero timeout rejected" true
    (status "zero-timeout" = ("rejected", 2, false));
  check_bool "negative budget rejected" true
    (status "negative-budget" = ("rejected", 2, false));
  check_bool "bad set aside" true
    (Sys.file_exists (Filename.concat spool.Spool.quarantine "bad.job"));
  (* Resubmit the good job under a fresh id: answered from the cache. *)
  let again = spec ~id:"again" ~trace ~models:(model_names ()) () in
  ignore (Spool.submit spool again);
  let summary2 = Daemon.run (daemon_cfg root) in
  check_int "cache hit" 1 summary2.Daemon.cache_hits;
  check_bool "again cached" true
    (status "again" = ("done", good_exit, true));
  (* And the cached verdicts are the same documents the first run produced. *)
  let v id =
    match Spool.read_response spool ~id with
    | Ok r -> r.Spool.r_verdicts
    | Error e -> Alcotest.fail e
  in
  check_bool "verdicts identical" true (v "good" = v "again")

let test_daemon_journal_recovery () =
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let trace = write_trace root 0 7 in
  let s = spec ~id:"lost" ~trace ~models:(model_names ()) () in
  (* Simulate a daemon that journalled the enqueue and crashed: no
     claimed file, no response, just the journal record. *)
  let t = Journal.open_ spool.Spool.journal in
  Journal.enqueued t ~id:"lost" ~spec:(Spool.jobspec_to_json s);
  Journal.close t;
  let summary = Daemon.run (daemon_cfg root) in
  check_int "replayed" 1 summary.Daemon.replayed;
  check_int "completed" 1 summary.Daemon.completed;
  (match Spool.read_response spool ~id:"lost" with
  | Ok r -> check_string "recovered to done" "done" r.Spool.r_status
  | Error e -> Alcotest.fail e)

let test_daemon_crash_budget () =
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let trace = write_trace root 0 7 in
  let s = spec ~id:"poison" ~trace () in
  let t = Journal.open_ spool.Spool.journal in
  Journal.enqueued t ~id:"poison" ~spec:(Spool.jobspec_to_json s);
  (* One started record per dead daemon incarnation, crash budget + 1
     of them: replay must quarantine instead of re-enqueueing. *)
  for k = 1 to Journal.crash_budget + 1 do
    Journal.started t ~id:"poison" ~attempt:k
  done;
  Journal.close t;
  let summary = Daemon.run (daemon_cfg root) in
  check_int "quarantined" 1 summary.Daemon.quarantined;
  check_int "not replayed" 0 summary.Daemon.replayed;
  (match Spool.read_response spool ~id:"poison" with
  | Ok r ->
    check_string "status" "quarantined" r.Spool.r_status;
    check_int "exit" 7 r.Spool.r_exit
  | Error e -> Alcotest.fail e);
  check_bool "job file set aside" true
    (Sys.file_exists (Filename.concat spool.Spool.quarantine "poison.job"))

let test_daemon_admission_control () =
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let trace = write_trace root 0 7 in
  let specs =
    List.init 5 (fun i -> spec ~id:(Printf.sprintf "q%d" i) ~trace ())
  in
  List.iter (fun s -> ignore (Spool.submit spool s)) specs;
  let cfg = { (daemon_cfg root) with Daemon.hwm = 2 } in
  let summary = Daemon.run cfg in
  check_int "overloaded" 3 summary.Daemon.overloaded;
  check_int "admitted" 2 summary.Daemon.admitted;
  let overloaded =
    List.filter
      (fun (s : Spool.jobspec) ->
        match Spool.read_response spool ~id:s.Spool.id with
        | Ok r -> r.Spool.r_status = "overloaded" && r.Spool.r_exit = 8
        | Error _ -> false)
      specs
  in
  check_int "structured overload responses" 3 (List.length overloaded)

(* The cache is an accelerator: when every store fails, both jobs still
   end [done], the summary counts one failed store per verdict and the
   cache stays empty. With the fabric off, a resubmission of either trace
   is recomputed, not answered from a cache entry that was never
   written. *)
let test_daemon_cache_store_failures () =
  let root = fresh_dir () in
  let spool = Spool.layout root in
  let traces = List.init 2 (fun i -> write_trace root i (60 + i)) in
  List.iteri
    (fun i trace ->
      ignore (Spool.submit spool (spec ~id:(Printf.sprintf "s%d" i) ~trace ())))
    traces;
  F.clear ();
  (match F.configure "cache.store=prob:1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let summary =
    Fun.protect ~finally:F.clear (fun () -> Daemon.run (daemon_cfg root))
  in
  check_int "both completed" 2 summary.Daemon.completed;
  check_int "every store failed" 2 summary.Daemon.cache_store_failures;
  List.iter
    (fun id ->
      match Spool.read_response spool ~id with
      | Ok r -> check_string (id ^ " done") "done" r.Spool.r_status
      | Error e -> Alcotest.fail e)
    [ "s0"; "s1" ];
  check_bool "no cache entry" true
    (Array.for_all
       (fun shard ->
         Sys.readdir (Filename.concat spool.Spool.cache shard) = [||])
       (Sys.readdir spool.Spool.cache));
  ignore (Spool.submit spool (spec ~id:"again" ~trace:(List.hd traces) ()));
  let summary2 = Daemon.run (daemon_cfg root) in
  check_int "recomputed, not cached" 0 summary2.Daemon.cache_hits;
  check_int "store succeeded" 0 summary2.Daemon.cache_store_failures;
  match Spool.read_response spool ~id:"again" with
  | Ok r -> check_bool "again computed fresh" false r.Spool.r_cached
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "serve"
    [
      ( "spool",
        [
          Alcotest.test_case "jobspec round trip" `Quick
            test_jobspec_round_trip;
          Alcotest.test_case ".tmp survivor recovery" `Quick
            test_spool_tmp_survivor_recovery;
          Alcotest.test_case "response round trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "flags string" `Quick test_flags_string;
        ] );
      ( "cache",
        [
          Alcotest.test_case "keys and store" `Quick test_cache_keys;
          Alcotest.test_case "definition digest in key" `Quick
            test_cache_key_tracks_definition;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay basics" `Quick test_journal_replay_basics;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "torn tail spanning records" `Quick
            test_journal_torn_tail_multi_record;
          QCheck_alcotest.to_alcotest prop_journal_kill_point;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache bytes = sequential pipeline" `Quick
            test_daemon_cache_byte_identity;
          Alcotest.test_case "statuses and cache hits" `Quick
            test_daemon_cache_hit_and_statuses;
          Alcotest.test_case "journal recovery" `Quick
            test_daemon_journal_recovery;
          Alcotest.test_case "crash budget quarantines" `Quick
            test_daemon_crash_budget;
          Alcotest.test_case "admission control" `Quick
            test_daemon_admission_control;
          Alcotest.test_case "failed cache stores are counted" `Quick
            test_daemon_cache_store_failures;

        ] );
    ]
