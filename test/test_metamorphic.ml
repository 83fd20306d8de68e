(* Metamorphic and meta-invariant properties of the verifier:

   1. Monotonicity: adding synchronization (barriers, fsyncs) to a program
      can only remove data races, never create them — for every model.
   2. Soundness link: the properly-synchronized relation implies
      happens-before (an MSC's edge chain composes to an hb path), so no
      "synchronized" verdict can exist between truly concurrent writes.
   3. Model ordering: POSIX (weakest requirement) accepts everything the
      relaxed models accept — per pair, ps under a relaxed model implies
      ps under POSIX. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module V = Verifyio


(* A deterministic random program: [rounds] rounds of I/O; between rounds,
   optionally a barrier and/or fsync (controlled by [sync_level]: 0 = none,
   1 = barriers, 2 = barriers + fsync). Data operations are identical
   across sync levels. *)
let program ~seed ~rounds ~sync_level (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let rank = ctx.E.rank in
  let fd = F.openf fs ~rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/mm" in
  let state = ref (seed + (rank * 31337)) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for _ = 1 to rounds do
    (match next () mod 2 with
    | 0 -> ignore (F.pwrite fs ~rank fd ~off:(next () mod 24) (Bytes.make 4 'd'))
    | _ -> ignore (F.pread fs ~rank fd ~off:(next () mod 24) ~len:4));
    if sync_level >= 2 then F.fsync fs ~rank fd;
    if sync_level >= 1 then M.barrier ctx comm
  done;
  F.close fs ~rank fd

let trace_of ?(sched_seed = 0) ~seed ~rounds ~sync_level ~nranks () =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let eng = E.create ~trace ~sched_seed ~nranks () in
  E.run eng (fun ctx -> program ~seed ~rounds ~sync_level ctx fs);
  Recorder.Trace.records trace

(* Identify a data op stably across program variants: (rank, ordinal among
   that rank's data ops). *)
let race_keys (o : V.Pipeline.outcome) =
  let d = o.V.Pipeline.decoded in
  let ordinal = Hashtbl.create 64 in
  for rank = 0 to V.Estore.nranks d - 1 do
    let k = ref 0 in
    Array.iter
      (fun idx ->
        if V.Estore.is_data d idx then begin
          Hashtbl.replace ordinal idx !k;
          incr k
        end)
      (V.Estore.rank_chain d rank)
  done;
  List.map
    (fun (r : V.Verify.race) ->
      let key idx = (V.Estore.rank d idx, Hashtbl.find ordinal idx) in
      let a = key r.V.Verify.rx and b = key r.V.Verify.ry in
      if a <= b then (a, b) else (b, a))
    o.V.Pipeline.races
  |> List.sort_uniq compare

let prop_sync_monotonicity =
  QCheck2.Test.make
    ~name:"adding synchronization never creates data races (any model)"
    ~count:25
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 2 4))
    (fun (seed, nranks) ->
      let races ~sync_level model =
        let records = trace_of ~seed ~rounds:6 ~sync_level ~nranks () in
        race_keys
          (V.Pipeline.verify_prepared ~model (V.Pipeline.prepare ~nranks records))
      in
      List.for_all
        (fun model ->
          let r0 = races ~sync_level:0 model in
          let r1 = races ~sync_level:1 model in
          let r2 = races ~sync_level:2 model in
          let subset a b = List.for_all (fun x -> List.mem x b) a in
          subset r1 r0 && subset r2 r1)
        V.Model.builtin)

let prop_ps_implies_hb =
  QCheck2.Test.make
    ~name:"properly-synchronized implies happens-before" ~count:25
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 2))
    (fun (seed, sync_level) ->
      let nranks = 3 in
      let records = trace_of ~seed ~rounds:6 ~sync_level ~nranks () in
      let d = V.Estore.of_records ~nranks records in
      let m = V.Match_mpi.run d in
      let g = V.Hb_graph.build d m in
      let reach = V.Reach.create V.Reach.Vector_clock g in
      let sidx = V.Msc.build_index d in
      let groups = V.Conflict.detect d in
      List.for_all
        (fun model ->
          List.for_all
            (fun (grp : V.Conflict.group) ->
              List.for_all
                (fun (_, ys) ->
                  Array.for_all
                    (fun y ->
                      let ps =
                        V.Msc.properly_synchronized model reach sidx
                          ~x:grp.V.Conflict.x ~y
                      in
                      (not ps) || V.Reach.reaches reach grp.V.Conflict.x y)
                    ys)
                grp.V.Conflict.peers)
            groups)
        V.Model.builtin)

let prop_relaxed_ps_implies_posix_ps =
  QCheck2.Test.make
    ~name:"ps under a relaxed model implies ps under POSIX" ~count:25
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 2))
    (fun (seed, sync_level) ->
      let nranks = 3 in
      let records = trace_of ~seed ~rounds:6 ~sync_level ~nranks () in
      let d = V.Estore.of_records ~nranks records in
      let m = V.Match_mpi.run d in
      let g = V.Hb_graph.build d m in
      let reach = V.Reach.create V.Reach.Vector_clock g in
      let sidx = V.Msc.build_index d in
      let groups = V.Conflict.detect d in
      let ps model x y =
        V.Msc.properly_synchronized model reach sidx ~x ~y
      in
      List.for_all
        (fun relaxed ->
          List.for_all
            (fun (grp : V.Conflict.group) ->
              List.for_all
                (fun (_, ys) ->
                  Array.for_all
                    (fun y ->
                      (not (ps relaxed grp.V.Conflict.x y))
                      || ps V.Model.posix grp.V.Conflict.x y)
                    ys)
                grp.V.Conflict.peers)
            groups)
        [ V.Model.commit; V.Model.session; V.Model.mpi_io ])

let prop_schedule_independence =
  (* A fully synchronized program must verify clean under EVERY
     interleaving, and a program's clean/racy verdict on a given model must
     not depend on the schedule that produced the trace. *)
  QCheck2.Test.make ~name:"verdicts are schedule-independent" ~count:15
    QCheck2.Gen.(triple (int_range 1 100000) (int_range 1 50) (int_range 0 2))
    (fun (seed, sched_seed, sync_level) ->
      let nranks = 3 in
      let base = trace_of ~seed ~rounds:5 ~sync_level ~nranks () in
      let shuffled =
        trace_of ~sched_seed ~seed ~rounds:5 ~sync_level ~nranks ()
      in
      List.for_all
        (fun model ->
          let keys records =
            race_keys
              (V.Pipeline.verify_prepared ~model
                 (V.Pipeline.prepare ~nranks records))
          in
          keys base = keys shuffled)
        V.Model.builtin)

let () =
  Alcotest.run "metamorphic"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sync_monotonicity;
            prop_ps_implies_hb;
            prop_relaxed_ps_implies_posix_ps;
            prop_schedule_independence;
          ] );
    ]
