(* End-to-end tests for the VerifyIO core: traces produced by the simulator
   are verified against all four consistency models and must reproduce the
   paper's verdicts for the canonical patterns (Fig. 2 example, Fig. 6
   barrier-only vs sync-barrier-sync, §V-B concurrent writes, §V-D
   unmatched collectives), plus unit-level checks of decoding, conflict
   detection, matching, and the happens-before engines. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module V = Verifyio
module R = Recorder.Record

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let b = Bytes.of_string

(* Run a rank program against a fresh traced engine + POSIX fs; return the
   collected records. Engine aborts (deadlock/mismatch) are swallowed — the
   partial trace is exactly what the verifier should see. *)
let collect ~nranks program =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let eng = E.create ~trace ~nranks () in
  (try E.run eng (fun ctx -> program ctx fs)
   with E.Deadlock _ | E.Mismatch _ -> ());
  Recorder.Trace.records trace

let outcome_for ?engine ~nranks ~model program =
  V.Pipeline.verify_prepared ~model
    (V.Pipeline.prepare ?engine ~nranks (collect ~nranks program))

let verdicts ~nranks program =
  let p = V.Pipeline.prepare ~nranks (collect ~nranks program) in
  List.map
    (fun (m : V.Model.t) ->
      ( m.V.Model.name,
        V.Pipeline.is_properly_synchronized (V.Pipeline.verify_prepared ~model:m p) ))
    V.Model.builtin

let check_verdicts name expected got =
  List.iter2
    (fun (m1, v1) (m2, v2) ->
      Alcotest.(check string) (name ^ ": model order") m1 m2;
      check_bool (Printf.sprintf "%s under %s" name m1) v1 v2)
    expected got

(* ------------------------------------------------------------------ *)
(* Canonical programs                                                   *)
(* ------------------------------------------------------------------ *)

(* Fig. 2: write, commit, barrier / read through a descriptor opened before
   the writer's session ended. Expected: POSIX yes, Commit yes, Session no,
   MPI-IO no. *)
let fig2_program (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/data" in
  if ctx.E.rank = 0 then begin
    ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "1111"));
    F.fsync fs ~rank:0 fd
  end;
  M.barrier ctx comm;
  if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
  F.close fs ~rank:ctx.E.rank fd

let test_fig2_verdicts () =
  check_verdicts "fig2"
    [ ("POSIX", true); ("Commit", true); ("Session", false); ("MPI-IO", false) ]
    (verdicts ~nranks:2 fig2_program)

(* Barrier-only: no sync op at all. POSIX yes, everything else no. *)
let barrier_only_program (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/bo" in
  if ctx.E.rank = 0 then ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "xxxx"));
  M.barrier ctx comm;
  if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
  M.barrier ctx comm;
  F.close fs ~rank:ctx.E.rank fd

let test_barrier_only_verdicts () =
  check_verdicts "barrier-only"
    [ ("POSIX", true); ("Commit", false); ("Session", false); ("MPI-IO", false) ]
    (verdicts ~nranks:2 barrier_only_program)

(* Fully synchronized: write, sync, close / barrier / open, read — through
   MPI-IO so all four models are satisfied. *)
let fully_synced_program (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let f =
    Mpiio.File.open_ ctx ~comm ~fs ~amode:[ Mpiio.File.Create; Mpiio.File.Rdwr ]
      "/fsy"
  in
  if ctx.E.rank = 0 then Mpiio.File.write_at ctx f ~off:0 (b "ssss");
  Mpiio.File.sync ctx f;
  Mpiio.File.close ctx f;
  M.barrier ctx comm;
  let f2 =
    Mpiio.File.open_ ctx ~comm ~fs ~amode:[ Mpiio.File.Rdwr ] "/fsy"
  in
  if ctx.E.rank = 1 then ignore (Mpiio.File.read_at ctx f2 ~off:0 ~len:4);
  Mpiio.File.close ctx f2

let test_fully_synced_verdicts () =
  check_verdicts "fully-synced"
    [ ("POSIX", true); ("Commit", true); ("Session", true); ("MPI-IO", true) ]
    (verdicts ~nranks:2 fully_synced_program)

(* Concurrent same-offset writes with no ordering: racy under every model
   (the POSIX data races of §V-B). *)
let concurrent_writes_program (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/cw" in
  ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:0 (b "zzzz"));
  M.barrier ctx comm;
  F.close fs ~rank:ctx.E.rank fd

let test_concurrent_writes_racy_everywhere () =
  check_verdicts "concurrent-writes"
    [ ("POSIX", false); ("Commit", false); ("Session", false); ("MPI-IO", false) ]
    (verdicts ~nranks:2 concurrent_writes_program)

(* Session requires the reader to open after the writer's close. *)
let session_reopen_program (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  if ctx.E.rank = 0 then begin
    let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/sr" in
    ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "pppp"));
    F.close fs ~rank:0 fd;
    M.barrier ctx comm
  end
  else begin
    M.barrier ctx comm;
    let fd = F.openf fs ~rank:1 ~flags:[ F.O_CREAT; F.O_RDWR ] "/sr" in
    ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:1 fd
  end

let test_session_requires_reopen () =
  check_verdicts "session-reopen"
    [ ("POSIX", true); ("Commit", false); ("Session", true); ("MPI-IO", false) ]
    (verdicts ~nranks:2 session_reopen_program)

(* Point-to-point synchronization instead of a barrier still gives hb. *)
let p2p_sync_program (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/pp" in
  if ctx.E.rank = 0 then begin
    ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "mmmm"));
    M.send ctx ~dst:1 ~tag:1 ~comm (b "done")
  end
  else begin
    ignore (M.recv ctx ~src:M.any_source ~tag:M.any_tag ~comm);
    ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4)
  end;
  F.close fs ~rank:ctx.E.rank fd

let test_p2p_gives_hb () =
  let o = outcome_for ~nranks:2 ~model:V.Model.posix p2p_sync_program in
  check_int "no POSIX races" 0 o.V.Pipeline.race_count;
  check_int "one conflict pair" 1 o.V.Pipeline.conflicts

let test_p2p_reversed_is_race () =
  (* The read happens on the sending side BEFORE the send: no hb from the
     write to it. *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/pr" in
    if ctx.E.rank = 0 then begin
      ignore (F.pread fs ~rank:0 fd ~off:0 ~len:4);
      M.send ctx ~dst:1 ~tag:1 ~comm (b "go")
    end
    else begin
      ignore (M.recv ctx ~src:0 ~tag:1 ~comm);
      ignore (F.pwrite fs ~rank:1 fd ~off:0 (b "qqqq"))
    end;
    F.close fs ~rank:ctx.E.rank fd
  in
  (* read(0) -> send -> recv -> write(1): the read happens-before the write,
     so this IS properly synchronized under POSIX (read case of Def. 6). *)
  let o = outcome_for ~nranks:2 ~model:V.Model.posix program in
  check_int "read-before-write is synchronized" 0 o.V.Pipeline.race_count

let test_nonblocking_sync_chain () =
  (* irecv + wait carrying the ordering. *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/nb" in
    if ctx.E.rank = 0 then begin
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "nnnn"));
      M.send ctx ~dst:1 ~tag:9 ~comm (b "k")
    end
    else begin
      let r = M.irecv ctx ~src:0 ~tag:9 ~comm in
      ignore (M.wait ctx r);
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4)
    end;
    F.close fs ~rank:ctx.E.rank fd
  in
  let o = outcome_for ~nranks:2 ~model:V.Model.posix program in
  check_int "wait completes the edge" 0 o.V.Pipeline.race_count

let test_no_sync_no_hb_is_posix_race () =
  (* Writer and reader with no MPI synchronization at all. *)
  let program (ctx : E.ctx) fs =
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/nr" in
    if ctx.E.rank = 0 then ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "aaaa"))
    else ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank fd
  in
  let o = outcome_for ~nranks:2 ~model:V.Model.posix program in
  check_int "posix race" 1 o.V.Pipeline.race_count

let test_ibarrier_sync_at_completion () =
  (* The paper's tricky case: a non-blocking collective synchronizes at its
     COMPLETION, not at its initiation. Reading after the wait is properly
     synchronized under POSIX; reading between the post and the wait is
     a race. *)
  let program ~read_before_wait (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/ib" in
    if ctx.E.rank = 0 then begin
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "iiii"));
      let req = M.ibarrier ctx comm in
      ignore (M.wait ctx req)
    end
    else begin
      let req = M.ibarrier ctx comm in
      if read_before_wait then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
      ignore (M.wait ctx req);
      if not read_before_wait then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4)
    end;
    F.close fs ~rank:ctx.E.rank fd
  in
  let races ~read_before_wait =
    (outcome_for ~nranks:2 ~model:V.Model.posix (program ~read_before_wait))
      .V.Pipeline.race_count
  in
  check_int "read after wait is synchronized" 0 (races ~read_before_wait:false);
  check_int "read between post and wait races" 1 (races ~read_before_wait:true)

let test_iallreduce_counts_as_collective () =
  (* An iallreduce + waits is matched like any collective: clean run, no
     unmatched diagnostics, and it synchronizes at completion. *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/ia" in
    if ctx.E.rank = 0 then ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "rrrr"));
    let req = M.iallreduce ctx ~op:M.Sum ~comm [| ctx.E.rank |] in
    ignore (M.wait_ints ctx req);
    if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank fd
  in
  let o = outcome_for ~nranks:2 ~model:V.Model.posix program in
  check_int "no races" 0 o.V.Pipeline.race_count;
  check_int "no unmatched" 0 (List.length o.V.Pipeline.unmatched)

(* ------------------------------------------------------------------ *)
(* Sub-communicators                                                     *)
(* ------------------------------------------------------------------ *)

let test_subcomm_barrier_scopes_hb () =
  (* Ranks {0,1} share a split communicator and barrier on it; rank 2
     conflicts with rank 0 but is in the other group: race for (0,2),
     no race for (0,1). *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let sub = M.comm_split ctx ~color:(if ctx.E.rank < 2 then 0 else 1) ~key:0 comm in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/sc" in
    if ctx.E.rank = 0 then ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "ssss"));
    M.barrier ctx sub;
    if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    if ctx.E.rank = 2 then ignore (F.pread fs ~rank:2 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank fd
  in
  let o = outcome_for ~nranks:3 ~model:V.Model.posix program in
  check_int "exactly the cross-group pair races" 1 o.V.Pipeline.race_count;
  let d = o.V.Pipeline.decoded in
  List.iter
    (fun (r : V.Verify.race) ->
      let ranks =
        (V.Estore.rank d r.V.Verify.rx, V.Estore.rank d r.V.Verify.ry)
      in
      check_bool "race is between ranks 0 and 2" true
        (ranks = (0, 2) || ranks = (2, 0)))
    o.V.Pipeline.races

let test_comm_dup_collectives_match () =
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let dup = M.comm_dup ctx comm in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/cd" in
    if ctx.E.rank = 0 then ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "dddd"));
    M.barrier ctx dup;
    if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank fd
  in
  let o = outcome_for ~nranks:2 ~model:V.Model.posix program in
  check_int "barrier on dup synchronizes" 0 o.V.Pipeline.race_count;
  check_int "nothing unmatched" 0 (List.length o.V.Pipeline.unmatched)

(* ------------------------------------------------------------------ *)
(* Unmatched MPI calls (§V-D)                                           *)
(* ------------------------------------------------------------------ *)

let test_collective_subset_reported () =
  (* collective_error: rank 2 never joins the barrier. *)
  let program (ctx : E.ctx) _fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank < 2 then M.barrier ctx comm
  in
  let o = outcome_for ~nranks:3 ~model:V.Model.posix program in
  check_bool "unmatched reported" true (o.V.Pipeline.unmatched <> []);
  match o.V.Pipeline.unmatched with
  | V.Match_mpi.Mismatched_collective { missing; _ } :: _ ->
    Alcotest.(check (list int)) "rank 2 missing" [ 2 ] missing
  | _ -> Alcotest.fail "expected a mismatched collective diagnostic"

let test_split_wait_bug_reported () =
  let trace = Recorder.Trace.create ~nranks:2 in
  let fs = F.create ~trace ~model:F.posix () in
  let sys = Pncdf.Pnetcdf.create_system ~bug_split_wait:true ~fs () in
  let eng = E.create ~trace ~nranks:2 () in
  (try
     E.run eng (fun ctx ->
         let module P = Pncdf.Pnetcdf in
         let comm = M.comm_world ctx in
         let nc = P.create ctx sys ~comm "/bug.nc" in
         let d = P.def_dim ctx nc ~name:"x" ~len:8 in
         let v = P.def_var ctx nc ~name:"a" P.Text ~dims:[ d ] in
         P.enddef ctx nc;
         let r =
           P.iput_vara ctx nc v ~start:[ ctx.E.rank * 4 ] ~count:[ 4 ]
             (Bytes.make 4 'w')
         in
         P.wait_all ctx nc [ r ];
         P.close ctx nc)
   with E.Mismatch _ -> ());
  let o =
    V.Pipeline.verify_prepared ~model:V.Model.posix
      (V.Pipeline.prepare ~nranks:2 (Recorder.Trace.records trace))
  in
  let mismatches =
    List.filter
      (function V.Match_mpi.Mismatched_collective _ -> true | _ -> false)
      o.V.Pipeline.unmatched
  in
  check_bool "split wait reported" true (mismatches <> []);
  match mismatches with
  | V.Match_mpi.Mismatched_collective { present; _ } :: _ ->
    let funcs = List.sort_uniq compare (List.map snd present) in
    Alcotest.(check (list string))
      "the two paths" [ "MPI_File_write_all"; "MPI_File_write_at_all" ] funcs
  | _ -> assert false

(* A receive whose request id is posted again while it is still posted
   can no longer complete: it must be reported unmatched, not lost. Rank
   0 posts rid 5 twice and waits once; rank 1 sends twice on the same
   channel, so one pair matches and the second send is left over. *)
let test_reposted_request_id_reported () =
  let mk rank seq func args =
    {
      R.rank;
      seq;
      tstart = (10 * seq) + rank;
      tend = (10 * seq) + rank + 1;
      layer = R.Mpi;
      func;
      args = Array.of_list args;
      ret = "0";
      call_path = [];
    }
  in
  let records =
    [
      mk 0 0 "MPI_Irecv" [ "1"; "7"; "0"; "5" ];
      mk 0 1 "MPI_Irecv" [ "1"; "7"; "0"; "5" ];
      mk 0 2 "MPI_Wait" [ "5"; "1"; "7" ];
      mk 1 0 "MPI_Send" [ "0"; "7"; "0"; "8" ];
      mk 1 1 "MPI_Send" [ "0"; "7"; "0"; "8" ];
    ]
  in
  let r = V.Match_mpi.run (V.Estore.of_records ~nranks:2 records) in
  (* op indices follow (rank, seq): r0#0 = 0, r0#2 = 2, r1#0 = 3, r1#1 = 4 *)
  check_bool "one pair: r1#0 to the wait" true
    (r.V.Match_mpi.events = [ V.Match_mpi.P2p { send = 3; completion = 2 } ]);
  check_bool "first Irecv and second send unmatched" true
    (r.V.Match_mpi.unmatched
    = [ V.Match_mpi.Unmatched_send 4; V.Match_mpi.Unmatched_recv 0 ])

(* ------------------------------------------------------------------ *)
(* Offset reconstruction                                                *)
(* ------------------------------------------------------------------ *)

let test_offset_reconstruction_write_lseek () =
  let program (ctx : E.ctx) fs =
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/or" in
    if ctx.E.rank = 0 then begin
      ignore (F.write fs ~rank:0 fd (b "abcd"));  (* [0,4) *)
      ignore (F.lseek fs ~rank:0 fd ~off:10 F.SEEK_SET);
      ignore (F.write fs ~rank:0 fd (b "ef"));  (* [10,12) *)
      ignore (F.lseek fs ~rank:0 fd ~off:0 F.SEEK_END);
      ignore (F.write fs ~rank:0 fd (b "g"))  (* [12,13) *)
    end;
    F.close fs ~rank:ctx.E.rank fd
  in
  let records = collect ~nranks:1 program in
  let d = V.Estore.of_records ~nranks:1 records in
  let datas =
    List.filter_map
      (fun i ->
        if V.Estore.is_data d i && V.Estore.is_write d i then
          Some (V.Estore.iv_lo d i, V.Estore.iv_hi d i)
        else None)
      (List.init (V.Estore.length d) Fun.id)
  in
  Alcotest.(check (list (pair int int)))
    "reconstructed ranges" [ (0, 4); (10, 12); (12, 13) ] datas

let test_offset_reconstruction_streams () =
  let program (ctx : E.ctx) fs =
    let st = F.fopen fs ~rank:ctx.E.rank ~mode:"w+" "/os" in
    if ctx.E.rank = 0 then begin
      ignore (F.fwrite fs ~rank:0 st ~size:2 ~nitems:3 (b "aabbcc"));  (* [0,6) *)
      F.fseek fs ~rank:0 st ~off:2 F.SEEK_SET;
      ignore (F.fread fs ~rank:0 st ~size:2 ~nitems:1);  (* [2,4) *)
      ignore (F.fwrite fs ~rank:0 st ~size:1 ~nitems:2 (b "zz"))  (* [4,6) *)
    end;
    F.fclose fs ~rank:ctx.E.rank st
  in
  let records = collect ~nranks:1 program in
  let d = V.Estore.of_records ~nranks:1 records in
  let datas =
    List.filter_map
      (fun i ->
        if V.Estore.is_data d i then
          Some (V.Estore.is_write d i, V.Estore.iv_lo d i, V.Estore.iv_hi d i)
        else None)
      (List.init (V.Estore.length d) Fun.id)
  in
  Alcotest.(check (list (triple bool int int)))
    "stream ranges"
    [ (true, 0, 6); (false, 2, 4); (true, 4, 6) ]
    datas

let test_fd_and_stream_same_fid () =
  let program (ctx : E.ctx) fs =
    if ctx.E.rank = 0 then begin
      let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/same" in
      let st = F.fopen fs ~rank:0 ~mode:"r+" "/same" in
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (b "x"));
      ignore (F.fwrite fs ~rank:0 st ~size:1 ~nitems:1 (b "y"));
      F.fclose fs ~rank:0 st;
      F.close fs ~rank:0 fd
    end
  in
  let records = collect ~nranks:1 program in
  let d = V.Estore.of_records ~nranks:1 records in
  let fids =
    List.filter_map
      (fun i -> if V.Estore.is_data d i then Some (V.Estore.fid d i) else None)
      (List.init (V.Estore.length d) Fun.id)
    |> List.sort_uniq compare
  in
  check_int "one file id across both handle types" 1 (List.length fids)

(* ------------------------------------------------------------------ *)
(* Engines agree                                                        *)
(* ------------------------------------------------------------------ *)

let test_engines_agree_on_verdicts () =
  (* Sends above may stay unmatched (no receives posted); restrict the
     check to race equality across engines rather than full cleanliness. *)
  for seed = 1 to 5 do
    let records =
      collect ~nranks:3 (fun ctx fs ->
          (* Avoid sends entirely for this cross-engine check. *)
          let comm = M.comm_world ctx in
          let fd =
            F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/ea"
          in
          let state = ref (seed + (ctx.E.rank * 31)) in
          let next () =
            state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
            !state
          in
          for _ = 1 to 8 do
            match next () mod 4 with
            | 0 ->
              ignore
                (F.pwrite fs ~rank:ctx.E.rank fd ~off:(next () mod 12) (b "xy"))
            | 1 ->
              ignore (F.pread fs ~rank:ctx.E.rank fd ~off:(next () mod 12) ~len:2)
            | 2 -> M.barrier ctx comm
            | _ -> if next () mod 2 = 0 then F.fsync fs ~rank:ctx.E.rank fd
          done;
          F.close fs ~rank:ctx.E.rank fd)
    in
    List.iter
      (fun model ->
        let baseline = ref None in
        List.iter
          (fun eng ->
            let o =
              V.Pipeline.verify_prepared ~model
                (V.Pipeline.prepare ~engine:eng ~nranks:3 records)
            in
            let key =
              List.map (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry)) o.V.Pipeline.races
            in
            match !baseline with
            | None -> baseline := Some key
            | Some k ->
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "seed %d, %s, engine %s agrees" seed
                   model.V.Model.name (V.Reach.engine_name eng))
                k key)
          V.Reach.all_engines)
      V.Model.builtin
  done

let test_pruning_equivalence () =
  for seed = 1 to 4 do
    let records =
      collect ~nranks:3 (fun ctx fs ->
          let comm = M.comm_world ctx in
          let fd =
            F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/pe"
          in
          let state = ref (seed * 17) in
          let next () =
            state := ((!state * 75) + 74) mod 65537;
            !state
          in
          for _ = 1 to 10 do
            match (next () + ctx.E.rank) mod 4 with
            | 0 -> ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:(next () mod 8) (b "u"))
            | 1 -> ignore (F.pread fs ~rank:ctx.E.rank fd ~off:(next () mod 8) ~len:1)
            | 2 -> M.barrier ctx comm
            | _ -> F.fsync fs ~rank:ctx.E.rank fd
          done;
          F.close fs ~rank:ctx.E.rank fd)
    in
    List.iter
      (fun model ->
        let p = V.Pipeline.prepare ~nranks:3 records in
        let with_p = V.Pipeline.verify_prepared ~pruning:true ~model p in
        let without_p = V.Pipeline.verify_prepared ~pruning:false ~model p in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "seed %d %s: pruned = unpruned" seed model.V.Model.name)
          (List.map (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry)) without_p.V.Pipeline.races)
          (List.map (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry)) with_p.V.Pipeline.races);
        check_bool
          (Printf.sprintf "seed %d %s: pruning does not increase checks" seed
             model.V.Model.name)
          true
          (with_p.V.Pipeline.stats.V.Verify.ps_checks
          <= without_p.V.Pipeline.stats.V.Verify.ps_checks))
      V.Model.builtin
  done

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let test_race_report_has_call_chain () =
  let trace = Recorder.Trace.create ~nranks:2 in
  let fs = F.create ~trace ~model:F.posix () in
  let sys = Netcdfsim.Netcdf.create_system ~fs in
  let eng = E.create ~trace ~nranks:2 () in
  E.run eng (fun ctx ->
      let module NC = Netcdfsim.Netcdf in
      let comm = M.comm_world ctx in
      let nc = NC.create_par ctx sys ~comm "/p5.nc" in
      let dx = NC.def_dim ctx nc ~name:"x" ~len:4 in
      let v = NC.def_var ctx nc ~name:"v" NC.Byte ~dims:[ dx ] in
      NC.enddef ctx nc;
      NC.put_var ctx nc v (Bytes.make 4 '!');
      M.barrier ctx comm;
      NC.close ctx nc);
  let o =
    V.Pipeline.verify_prepared ~model:V.Model.posix
      (V.Pipeline.prepare ~nranks:2 (Recorder.Trace.records trace))
  in
  check_bool "parallel5-style race found" true (o.V.Pipeline.race_count > 0);
  let report = V.Report.race_report o in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  check_bool "report names the NetCDF entry point" true
    (contains report "nc_put_var_schar");
  check_bool "report shows the full chain" true (contains report "H5Dwrite")

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_tables_render () =
  let t1 = V.Report.table_i () in
  let t2 = V.Report.table_ii () in
  check_bool "table I mentions MPI-IO" true (contains_sub t1 "MPI-IO");
  check_bool "table I shows the session MSC" true
    (contains_sub t1 "session_close");
  check_bool "table II mentions Recorder+" true (contains_sub t2 "Recorder+")

let () =
  Alcotest.run "verifyio-core"
    [
      ( "verdicts",
        [
          Alcotest.test_case "fig2" `Quick test_fig2_verdicts;
          Alcotest.test_case "barrier only" `Quick test_barrier_only_verdicts;
          Alcotest.test_case "fully synced" `Quick test_fully_synced_verdicts;
          Alcotest.test_case "concurrent writes" `Quick
            test_concurrent_writes_racy_everywhere;
          Alcotest.test_case "session reopen" `Quick test_session_requires_reopen;
        ] );
      ( "happens-before",
        [
          Alcotest.test_case "p2p gives hb" `Quick test_p2p_gives_hb;
          Alcotest.test_case "read-before-write" `Quick test_p2p_reversed_is_race;
          Alcotest.test_case "irecv/wait chain" `Quick test_nonblocking_sync_chain;
          Alcotest.test_case "no sync = race" `Quick test_no_sync_no_hb_is_posix_race;
          Alcotest.test_case "subcomm scope" `Quick test_subcomm_barrier_scopes_hb;
          Alcotest.test_case "comm dup" `Quick test_comm_dup_collectives_match;
          Alcotest.test_case "ibarrier completes at wait" `Quick
            test_ibarrier_sync_at_completion;
          Alcotest.test_case "iallreduce matched" `Quick
            test_iallreduce_counts_as_collective;
        ] );
      ( "unmatched",
        [
          Alcotest.test_case "collective subset" `Quick
            test_collective_subset_reported;
          Alcotest.test_case "split-wait bug" `Quick test_split_wait_bug_reported;
          Alcotest.test_case "re-posted request id" `Quick
            test_reposted_request_id_reported;
        ] );
      ( "offsets",
        [
          Alcotest.test_case "write/lseek" `Quick
            test_offset_reconstruction_write_lseek;
          Alcotest.test_case "streams" `Quick test_offset_reconstruction_streams;
          Alcotest.test_case "fd+stream same fid" `Quick
            test_fd_and_stream_same_fid;
        ] );
      ( "engines",
        [
          Alcotest.test_case "all engines agree" `Slow
            test_engines_agree_on_verdicts;
          Alcotest.test_case "pruning equivalence" `Quick
            test_pruning_equivalence;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "race report call chain" `Quick
            test_race_report_has_call_chain;
          Alcotest.test_case "tables render" `Quick test_tables_render;
        ] );
    ]
