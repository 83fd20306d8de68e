(* Tests for the consistency-model layer: builtin specifications (Table I),
   custom model construction, sync-operation predicates (file scoping, API
   flavours), and MSC checking against hand-crafted traces. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module V = Verifyio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Specifications                                                       *)
(* ------------------------------------------------------------------ *)

let test_builtin_shapes () =
  check_int "four builtin models" 4 (List.length V.Model.builtin);
  let shapes =
    List.map
      (fun (m : V.Model.t) ->
        ( m.V.Model.name,
          List.map
            (fun (msc : V.Model.msc) ->
              (List.length msc.V.Model.edges, List.length msc.V.Model.syncs))
            m.V.Model.mscs ))
      V.Model.builtin
  in
  Alcotest.(check (list (pair string (list (pair int int)))))
    "edge/sync arities (Table I)"
    [
      ("POSIX", [ (1, 0) ]);
      ("Commit", [ (2, 1) ]);
      ("Session", [ (3, 2) ]);
      ("MPI-IO", [ (3, 2) ]);
    ]
    shapes

let test_by_name () =
  List.iter
    (fun (query, expected) ->
      match V.Model.by_name query with
      | Some m -> check_string query expected m.V.Model.name
      | None -> Alcotest.fail ("lookup failed for " ^ query))
    [
      ("posix", "POSIX"); ("POSIX", "POSIX"); ("commit", "Commit");
      ("Session", "Session"); ("mpi-io", "MPI-IO"); ("MPIIO", "MPI-IO");
      ("mpiio", "MPI-IO");
    ];
  check_bool "unknown" true (V.Model.by_name "weird" = None)

let test_make_validation () =
  let sync = V.Model.opaque_pred ~name:"s" (fun _ _ ~fid:_ -> true) in
  (* Mismatched arity rejected. *)
  (try
     ignore
       (V.Model.make ~name:"bad" ~sync_set:[] ~msc_desc:""
          ~mscs:[ { V.Model.edges = [ V.Model.Hb ]; syncs = [ sync ] } ]
          ());
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (try
     ignore (V.Model.make ~name:"empty" ~sync_set:[] ~msc_desc:"" ~mscs:[] ());
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (* Well-formed custom model accepted. *)
  let m =
    V.Model.make ~name:"custom" ~sync_set:[ "s" ] ~msc_desc:"-hb-> s -hb->"
      ~mscs:[ { V.Model.edges = [ V.Model.Hb; V.Model.Hb ]; syncs = [ sync ] } ]
      ()
  in
  check_string "name kept" "custom" m.V.Model.name

(* The seven shipped models (builtin four + registered three), used where
   tests must not depend on what other tests registered. *)
let shipped () =
  V.Model.builtin
  @ [ V.Model.close_to_open; V.Model.commit_ps; V.Model.mpi_io_atomic ]

let test_registry () =
  check_bool "registry holds >= 7 models" true
    (List.length (V.Model.all ()) >= 7);
  List.iter
    (fun (query, expected) ->
      match V.Model.by_name query with
      | Some m -> check_string query expected m.V.Model.name
      | None -> Alcotest.fail ("lookup failed for " ^ query))
    [
      ("nfs", "Close-to-open"); ("C2O", "Close-to-open");
      ("close_to_open", "Close-to-open"); ("Close-To-Open", "Close-to-open");
      ("per-syncer-commit", "Commit-PS"); ("commitps", "Commit-PS");
      ("atomic", "MPI-IO-Atomic"); ("mpiio-nonatomic", "MPI-IO");
    ];
  (* An alias collision is rejected, names and aliases alike. *)
  (try
     V.Model.register
       (V.Model.make ~name:"NFS" ~sync_set:[] ~msc_desc:"-hb->"
          ~mscs:[ { V.Model.edges = [ V.Model.Hb ]; syncs = [] } ]
          ());
     Alcotest.fail "expected collision rejection"
   with Invalid_argument _ -> ());
  (* A fresh custom model registers, resolves, and the order places it. *)
  let m =
    V.Model.make ~name:"Test-Custom-XYZ" ~sync_set:[] ~msc_desc:"-hb->"
      ~mscs:[ { V.Model.edges = [ V.Model.Hb ]; syncs = [] } ]
      ()
  in
  V.Model.register m;
  check_bool "registered model resolves" true
    (V.Model.by_name "test-custom-xyz" = Some m);
  check_bool "order places the custom model" true
    (V.Model.equivalent m V.Model.posix)

let test_lattice_order () =
  let module VM = V.Model in
  let t name expected m1 m2 = check_bool name expected (VM.implies m1 m2) in
  (* edges (transitively closed) *)
  t "posix -> atomic" true VM.posix VM.mpi_io_atomic;
  t "atomic -> posix" true VM.mpi_io_atomic VM.posix;
  t "commit -> posix" true VM.commit VM.posix;
  t "session -> posix" true VM.session VM.posix;
  t "mpi_io -> posix" true VM.mpi_io VM.posix;
  t "c2o -> session" true VM.close_to_open VM.session;
  t "c2o -> posix" true VM.close_to_open VM.posix;
  t "commit_ps -> commit" true VM.commit_ps VM.commit;
  t "commit_ps -> posix" true VM.commit_ps VM.posix;
  (* non-edges: strictness and incomparability *)
  t "posix !-> commit" false VM.posix VM.commit;
  t "posix !-> session" false VM.posix VM.session;
  t "session !-> c2o" false VM.session VM.close_to_open;
  t "commit !-> commit_ps" false VM.commit VM.commit_ps;
  t "commit !-> session" false VM.commit VM.session;
  t "session !-> commit" false VM.session VM.commit;
  t "mpi_io !-> session" false VM.mpi_io VM.session;
  t "session !-> mpi_io" false VM.session VM.mpi_io;
  t "mpi_io !-> commit" false VM.mpi_io VM.commit;
  (* reflexivity across the shipped set *)
  List.iter (fun m -> t ("reflexive " ^ m.VM.name) true m m) (shipped ());
  check_bool "posix/atomic equivalent" true
    (VM.equivalent VM.posix VM.mpi_io_atomic);
  check_bool "commit/commit_ps not equivalent" false
    (VM.equivalent VM.commit VM.commit_ps)

let test_msc_digest () =
  let ms = shipped () in
  check_int "shipped digests all distinct" (List.length ms)
    (List.length (List.sort_uniq compare (List.map V.Model.msc_digest ms)));
  (* Same name, different MSC definition: different digest — the cache
     property the serve layer keys on. *)
  let mk shapes =
    V.Model.make ~name:"D" ~sync_set:[] ~msc_desc:""
      ~mscs:
        [
          {
            V.Model.edges = [ V.Model.Hb; V.Model.Hb ];
            syncs = [ V.Model.pred ~name:"p" shapes ];
          };
        ]
      ()
  in
  check_bool "digest tracks the definition" true
    (V.Model.msc_digest (mk [ { V.Model.sh_class = `Sync; sh_api = None } ])
    <> V.Model.msc_digest (mk [ { V.Model.sh_class = `Close; sh_api = None } ]))

let test_fs_linkage () =
  (* Every shipped model has a runnable posixfs visibility engine under
     the same name (the simulators registry is name-linked, not
     type-linked: posixfs cannot depend on the verifier core). *)
  List.iter
    (fun (m : V.Model.t) ->
      match F.model_by_name m.V.Model.name with
      | Some fm -> check_string m.V.Model.name m.V.Model.name (F.model_to_string fm)
      | None ->
        Alcotest.fail ("no posixfs visibility engine for " ^ m.V.Model.name))
    (shipped ())

(* ------------------------------------------------------------------ *)
(* MSC checking on real traces                                          *)
(* ------------------------------------------------------------------ *)

let collect ~nranks program =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx -> program ctx fs);
  Recorder.Trace.records trace

(* A standard scenario: rank 0 writes /x with optional syncs; rank 1 reads
   both /x and /y; /y is written by rank 1 itself so it never conflicts. *)
let verify_under model program =
  let records = collect ~nranks:2 program in
  let o = V.Pipeline.verify_prepared ~model (V.Pipeline.prepare ~nranks:2 records) in
  o.V.Pipeline.races = []

let test_commit_needs_fsync_not_close () =
  (* write + close + barrier + reopen-read: Session yes, Commit no. *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank = 0 then begin
      let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      F.close fs ~rank:0 fd;
      M.barrier ctx comm
    end
    else begin
      M.barrier ctx comm;
      let fd = F.openf fs ~rank:1 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
      F.close fs ~rank:1 fd
    end
  in
  check_bool "Session satisfied by close/open" true
    (verify_under V.Model.session program);
  check_bool "Commit NOT satisfied by close alone" false
    (verify_under V.Model.commit program)

let test_sync_op_must_be_on_same_file () =
  (* fsync of a DIFFERENT file must not satisfy the commit MSC. *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
    let other = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/other" in
    if ctx.E.rank = 0 then begin
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      F.fsync fs ~rank:0 other  (* wrong file! *)
    end;
    M.barrier ctx comm;
    if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank other;
    F.close fs ~rank:ctx.E.rank fd
  in
  check_bool "foreign fsync does not commit /x" false
    (verify_under V.Model.commit program)

let test_mpiio_model_ignores_posix_sync_ops () =
  (* POSIX-level fsync + close/open chains do NOT satisfy MPI-IO, whose S
     contains only MPI_File_* operations. *)
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank = 0 then begin
      let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      F.fsync fs ~rank:0 fd;
      F.close fs ~rank:0 fd;
      M.barrier ctx comm
    end
    else begin
      M.barrier ctx comm;
      let fd = F.openf fs ~rank:1 ~flags:[ F.O_RDWR ] "/x" in
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
      F.close fs ~rank:1 fd
    end
  in
  check_bool "POSIX chain satisfies Session" true
    (verify_under V.Model.session program);
  check_bool "POSIX chain satisfies Commit" true
    (verify_under V.Model.commit program);
  check_bool "POSIX chain does NOT satisfy MPI-IO" false
    (verify_under V.Model.mpi_io program)

let test_mpiio_sync_order_matters () =
  (* MPI-IO's MSC is po -> s1 -> hb -> s2 -> po: the writer's sync must be
     AFTER the write in program order, the reader's BEFORE the read. A
     sync before the write does not help. *)
  let mpiio_prog ~sync_before (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let f =
      Mpiio.File.open_ ctx ~comm ~fs
        ~amode:[ Mpiio.File.Create; Mpiio.File.Rdwr ] "/x"
    in
    if sync_before then Mpiio.File.sync ctx f;
    if ctx.E.rank = 0 then Mpiio.File.write_at ctx f ~off:0 (Bytes.make 4 'a');
    if not sync_before then Mpiio.File.sync ctx f;
    M.barrier ctx comm;
    if not sync_before then Mpiio.File.sync ctx f;
    if ctx.E.rank = 1 then ignore (Mpiio.File.read_at ctx f ~off:0 ~len:4);
    Mpiio.File.close ctx f
  in
  check_bool "sync after write works" true
    (verify_under V.Model.mpi_io (mpiio_prog ~sync_before:false));
  check_bool "sync only before write fails" false
    (verify_under V.Model.mpi_io (mpiio_prog ~sync_before:true))

let test_custom_model () =
  (* A custom "fence" model whose only sync op is a barrier-like POSIX
     fsync on ANY file: S = {any_fsync}, MSC = hb any_fsync hb. *)
  let any_fsync =
    V.Model.opaque_pred ~name:"any_fsync" (fun d i ~fid:_ ->
        V.Estore.kind_tag d i = V.Estore.tag_sync)
  in
  let fence =
    V.Model.make ~name:"Fence" ~sync_set:[ "any_fsync" ]
      ~msc_desc:"-hb-> any_fsync -hb->"
      ~mscs:
        [ { V.Model.edges = [ V.Model.Hb; V.Model.Hb ]; syncs = [ any_fsync ] } ]
      ()
  in
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
    let other = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/o" in
    if ctx.E.rank = 0 then begin
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      F.fsync fs ~rank:0 other
    end;
    M.barrier ctx comm;
    if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank other;
    F.close fs ~rank:ctx.E.rank fd
  in
  (* Under the custom model the foreign-file fsync counts. *)
  check_bool "fence model accepts any fsync" true (verify_under fence program);
  check_bool "builtin commit still rejects it" false
    (verify_under V.Model.commit program)

(* ------------------------------------------------------------------ *)
(* New-model MSC semantics                                              *)
(* ------------------------------------------------------------------ *)

(* Close-to-open distinguishes the API flavour of the close/open chain:
   an fd-level close -hb-> open chain counts, a stream-level one (fclose /
   fopen) does not, while Session accepts either. *)
let test_c2o_fd_vs_stream () =
  let fd_program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank = 0 then begin
      let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      F.close fs ~rank:0 fd;
      M.barrier ctx comm
    end
    else begin
      M.barrier ctx comm;
      let fd = F.openf fs ~rank:1 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
      F.close fs ~rank:1 fd
    end
  in
  let stream_program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank = 0 then begin
      let s = F.fopen fs ~rank:0 ~mode:"w" "/x" in
      ignore (F.fwrite fs ~rank:0 s ~size:1 ~nitems:4 (Bytes.make 4 'a'));
      F.fclose fs ~rank:0 s;
      M.barrier ctx comm
    end
    else begin
      M.barrier ctx comm;
      let s = F.fopen fs ~rank:1 ~mode:"r" "/x" in
      ignore (F.fread fs ~rank:1 s ~size:1 ~nitems:4);
      F.fclose fs ~rank:1 s
    end
  in
  check_bool "fd chain satisfies Close-to-open" true
    (verify_under V.Model.close_to_open fd_program);
  check_bool "fd chain satisfies Session" true
    (verify_under V.Model.session fd_program);
  check_bool "stream chain satisfies Session" true
    (verify_under V.Model.session stream_program);
  check_bool "stream chain does NOT satisfy Close-to-open" false
    (verify_under V.Model.close_to_open stream_program)

(* Commit-PS tightens Commit's first edge from -hb-> to -po->: only the
   WRITER's own fsync publishes its writes. A third-party fsync that
   happens-before the read still satisfies Commit. *)
let foreign_sync_program ~syncer (ctx : E.ctx) fs =
  let comm = M.comm_world ctx in
  let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
  if ctx.E.rank = 0 then
    ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
  M.barrier ctx comm;
  if ctx.E.rank = syncer then F.fsync fs ~rank:syncer fd;
  M.barrier ctx comm;
  if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
  F.close fs ~rank:ctx.E.rank fd

let test_commit_ps_requires_writers_own_sync () =
  check_bool "own fsync satisfies Commit-PS" true
    (verify_under V.Model.commit_ps (foreign_sync_program ~syncer:0));
  check_bool "own fsync satisfies Commit" true
    (verify_under V.Model.commit (foreign_sync_program ~syncer:0));
  check_bool "foreign fsync satisfies Commit" true
    (verify_under V.Model.commit (foreign_sync_program ~syncer:1));
  check_bool "foreign fsync does NOT satisfy Commit-PS" false
    (verify_under V.Model.commit_ps (foreign_sync_program ~syncer:1))

(* MPI-IO atomic mode has the same MSC as POSIX (-hb-> with no sync
   steps): the two must agree race-for-race on any trace. *)
let test_atomic_matches_posix_verdicts () =
  let racy (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
    if ctx.E.rank = 0 then
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'))
    else ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    M.barrier ctx comm;
    F.close fs ~rank:ctx.E.rank fd
  in
  let records = collect ~nranks:2 racy in
  let p = V.Pipeline.prepare ~nranks:2 records in
  let proj model =
    let o = V.Pipeline.verify_prepared ~model p in
    List.sort compare
      (List.map
         (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
         o.V.Pipeline.races)
  in
  let posix_races = proj V.Model.posix in
  check_bool "the trace really races" true (posix_races <> []);
  check_bool "atomic verdict = posix verdict" true
    (posix_races = proj V.Model.mpi_io_atomic)

(* The oracle's exhaustive MSC search is generic over the registry: for
   every shipped model plus an unregistered custom one, its verdict
   matches the optimized pipeline on a trace where models genuinely
   disagree (session idiom: clean under Session/Close-to-open, racy under
   the rest). *)
let test_oracle_generic_over_registry () =
  let program (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank = 0 then begin
      let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      F.close fs ~rank:0 fd;
      M.barrier ctx comm
    end
    else begin
      M.barrier ctx comm;
      let fd = F.openf fs ~rank:1 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
      F.close fs ~rank:1 fd
    end
  in
  let records = collect ~nranks:2 program in
  let any_close =
    V.Model.make ~name:"AnyClose" ~sync_set:[ "close" ]
      ~msc_desc:"-hb-> close -hb->"
      ~mscs:
        [
          {
            V.Model.edges = [ V.Model.Hb; V.Model.Hb ];
            syncs =
              [ V.Model.pred ~name:"close"
                  [ { V.Model.sh_class = `Close; sh_api = None } ] ];
          };
        ]
      ()
  in
  let models = shipped () @ [ any_close ] in
  let oracle = V.Oracle.verify ~models ~nranks:2 records in
  check_int "oracle covers every model" (List.length models)
    (List.length oracle);
  let p = V.Pipeline.prepare ~nranks:2 records in
  let saw_clean = ref false and saw_racy = ref false in
  List.iter2
    (fun (m : V.Model.t) ((om : V.Model.t), (v : V.Oracle.verdict)) ->
      check_string "model order preserved" m.V.Model.name om.V.Model.name;
      let o = V.Pipeline.verify_prepared ~model:m p in
      let pipeline_races =
        List.sort compare
          (List.map
             (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
             o.V.Pipeline.races)
      in
      if v.V.Oracle.races = [] then saw_clean := true else saw_racy := true;
      check_bool (m.V.Model.name ^ " oracle = pipeline") true
        (pipeline_races = v.V.Oracle.races))
    models oracle;
  check_bool "some model is clean on this trace" true !saw_clean;
  check_bool "some model races on this trace" true !saw_racy

(* ------------------------------------------------------------------ *)
(* Indexed chain search: edge cases                                     *)
(* ------------------------------------------------------------------ *)

(* Data ops of one rank and access kind, in program order. *)
let data_ops d ~rank ~write =
  Array.to_list (V.Estore.rank_chain d rank)
  |> List.filter (fun i ->
         V.Estore.is_data d i && V.Estore.is_write d i = write)

(* [x -ps-> y] under [model] for the pair [pick] selects. The indexed
   search answers under both engines the pipeline picks between, and must
   agree with the oracle's exhaustive search. *)
let ps_pair ~nranks model program pick =
  let d = V.Estore.of_records ~nranks (collect ~nranks program) in
  let g = V.Hb_graph.build d (V.Match_mpi.run d) in
  let sidx = V.Msc.build_index d in
  let x, y = pick d in
  let want = V.Oracle.properly_synchronized model g d ~x ~y in
  List.iter
    (fun engine ->
      check_bool
        (V.Reach.engine_name engine ^ " agrees with the oracle")
        want
        (V.Msc.properly_synchronized model (V.Reach.create engine g) sidx ~x
           ~y))
    [ V.Reach.Vector_clock; V.Reach.Interval_index ];
  want

(* One MPI_File_sync is both s1 (po after the write) and s2 (po before
   the read): the hb step between them is reflexive. *)
let test_mpiio_one_sync_both_roles () =
  let program ~sync (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let f =
      Mpiio.File.open_ ctx ~comm ~fs
        ~amode:[ Mpiio.File.Create; Mpiio.File.Rdwr ] "/x"
    in
    if ctx.E.rank = 0 then Mpiio.File.write_at ctx f ~off:0 (Bytes.make 4 'a');
    if sync then Mpiio.File.sync ctx f;
    if ctx.E.rank = 0 then ignore (Mpiio.File.read_at ctx f ~off:0 ~len:4);
    Mpiio.File.close ctx f
  in
  let write_then_read d =
    ( List.hd (data_ops d ~rank:0 ~write:true),
      List.hd (data_ops d ~rank:0 ~write:false) )
  in
  check_bool "one sync serves as s1 and s2" true
    (ps_pair ~nranks:2 V.Model.mpi_io (program ~sync:true) write_then_read);
  check_bool "no sync, no chain" false
    (ps_pair ~nranks:2 V.Model.mpi_io (program ~sync:false) write_then_read)

(* Rank 2 commits twice before the barrier that orders it after the
   write, then once after it. Its earliest commits are concurrent with
   the write; only the later one links the chain. *)
let test_commit_skips_unreached_early_syncs () =
  let program ~late (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
    if ctx.E.rank = 0 then
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
    if ctx.E.rank = 2 then begin
      F.fsync fs ~rank:2 fd;
      F.fsync fs ~rank:2 fd
    end;
    M.barrier ctx comm;
    if ctx.E.rank = 2 && late then F.fsync fs ~rank:2 fd;
    M.barrier ctx comm;
    if ctx.E.rank = 1 then ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
    F.close fs ~rank:ctx.E.rank fd
  in
  let pick d =
    ( List.hd (data_ops d ~rank:0 ~write:true),
      List.hd (data_ops d ~rank:1 ~write:false) )
  in
  check_bool "the later commit links the chain" true
    (ps_pair ~nranks:3 V.Model.commit (program ~late:true) pick);
  check_bool "the unreached commits alone do not" false
    (ps_pair ~nranks:3 V.Model.commit (program ~late:false) pick)

(* Stream closes and opens of /x sit between the descriptor ones on both
   ranks. Close-to-open must skip them; Session accepts them. *)
let test_c2o_skips_interleaved_stream_ops () =
  let stream_reopen fs rank =
    F.fclose fs ~rank (F.fopen fs ~rank ~mode:"r" "/x")
  in
  let published (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    if ctx.E.rank = 0 then begin
      let fd = F.openf fs ~rank:0 ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      stream_reopen fs 0;
      F.close fs ~rank:0 fd;
      M.barrier ctx comm
    end
    else begin
      M.barrier ctx comm;
      stream_reopen fs 1;
      let fd = F.openf fs ~rank:1 ~flags:[ F.O_RDWR ] "/x" in
      stream_reopen fs 1;
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4);
      F.close fs ~rank:1 fd
    end
  in
  let stream_only (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
    if ctx.E.rank = 0 then begin
      ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 4 'a'));
      stream_reopen fs 0
    end;
    M.barrier ctx comm;
    if ctx.E.rank = 1 then begin
      stream_reopen fs 1;
      ignore (F.pread fs ~rank:1 fd ~off:0 ~len:4)
    end;
    F.close fs ~rank:ctx.E.rank fd
  in
  let pick d =
    ( List.hd (data_ops d ~rank:0 ~write:true),
      List.hd (data_ops d ~rank:1 ~write:false) )
  in
  check_bool "fd chain past stream ops satisfies Close-to-open" true
    (ps_pair ~nranks:2 V.Model.close_to_open published pick);
  check_bool "stream ops alone do NOT satisfy Close-to-open" false
    (ps_pair ~nranks:2 V.Model.close_to_open stream_only pick);
  check_bool "stream ops alone satisfy Session" true
    (ps_pair ~nranks:2 V.Model.session stream_only pick)

(* Rank 2 opens /x after the writer's close is ordered before it, but
   Session's last edge is po: only an open on the reader's own rank
   completes the chain. *)
let test_session_open_on_readers_rank () =
  let program ~reader_reopens (ctx : E.ctx) fs =
    let comm = M.comm_world ctx in
    let rank = ctx.E.rank in
    let fd = F.openf fs ~rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/x" in
    if rank = 0 then begin
      ignore (F.pwrite fs ~rank fd ~off:0 (Bytes.make 4 'a'));
      F.close fs ~rank fd
    end;
    M.barrier ctx comm;
    if rank = 2 then
      F.close fs ~rank (F.openf fs ~rank ~flags:[ F.O_RDWR ] "/x");
    M.barrier ctx comm;
    if rank = 1 then begin
      let rfd =
        if reader_reopens then F.openf fs ~rank ~flags:[ F.O_RDWR ] "/x"
        else fd
      in
      ignore (F.pread fs ~rank rfd ~off:0 ~len:4);
      if reader_reopens then F.close fs ~rank rfd
    end;
    if rank <> 0 then F.close fs ~rank fd
  in
  let pick d =
    ( List.hd (data_ops d ~rank:0 ~write:true),
      List.hd (data_ops d ~rank:1 ~write:false) )
  in
  check_bool "an open on another rank does not count" false
    (ps_pair ~nranks:3 V.Model.session (program ~reader_reopens:false) pick);
  check_bool "the reader's own open does" true
    (ps_pair ~nranks:3 V.Model.session (program ~reader_reopens:true) pick)

let test_msc_sync_index () =
  let records =
    collect ~nranks:1 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/z" in
        F.fsync fs ~rank:0 fd;
        F.fsync fs ~rank:0 fd;
        F.close fs ~rank:0 fd)
  in
  let d = V.Estore.of_records ~nranks:1 records in
  let sidx = V.Msc.build_index d in
  (* open + 2 fsync + close = 4 sync-capable ops *)
  check_int "sync op count" 4 (V.Msc.sync_op_count sidx)

let () =
  Alcotest.run "models"
    [
      ( "specifications",
        [
          Alcotest.test_case "builtin shapes" `Quick test_builtin_shapes;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "make validation" `Quick test_make_validation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup and aliases" `Quick test_registry;
          Alcotest.test_case "lattice order" `Quick test_lattice_order;
          Alcotest.test_case "msc digest" `Quick test_msc_digest;
          Alcotest.test_case "posixfs linkage" `Quick test_fs_linkage;
        ] );
      ( "msc",
        [
          Alcotest.test_case "commit needs fsync" `Quick
            test_commit_needs_fsync_not_close;
          Alcotest.test_case "same-file scoping" `Quick
            test_sync_op_must_be_on_same_file;
          Alcotest.test_case "MPI-IO ignores POSIX syncs" `Quick
            test_mpiio_model_ignores_posix_sync_ops;
          Alcotest.test_case "sync order matters" `Quick
            test_mpiio_sync_order_matters;
          Alcotest.test_case "custom model" `Quick test_custom_model;
          Alcotest.test_case "c2o: fd vs stream chain" `Quick
            test_c2o_fd_vs_stream;
          Alcotest.test_case "commit-ps: own sync only" `Quick
            test_commit_ps_requires_writers_own_sync;
          Alcotest.test_case "atomic = posix verdicts" `Quick
            test_atomic_matches_posix_verdicts;
          Alcotest.test_case "oracle generic over registry" `Quick
            test_oracle_generic_over_registry;
          Alcotest.test_case "sync index" `Quick test_msc_sync_index;
          Alcotest.test_case "one MPI_File_sync as s1 and s2" `Quick
            test_mpiio_one_sync_both_roles;
          Alcotest.test_case "unreached early syncs skipped" `Quick
            test_commit_skips_unreached_early_syncs;
          Alcotest.test_case "interleaved non-matching syncs" `Quick
            test_c2o_skips_interleaved_stream_ops;
          Alcotest.test_case "session open on reader's rank" `Quick
            test_session_open_on_readers_rank;
        ] );
    ]
