(* A miniature scientific simulation with checkpoint/restart — the kind of
   workload the paper's introduction motivates.

   A 1-D heat-diffusion stencil runs distributed over four ranks: each
   timestep exchanges halo cells with neighbours (point-to-point MPI) and
   every few steps the field is checkpointed as one record of a PnetCDF
   record variable. After a simulated failure, the job restarts from the
   last checkpoint and continues.

   Two variants run: the correct one (ncmpi_sync + close before restart,
   reopen after) and a sloppy one (barrier only). Both produce identical
   results on the POSIX file system they ran on — but VerifyIO shows from
   the trace that the sloppy variant would corrupt restarts on a
   commit/session/MPI-IO system.

   Run with: dune exec examples/heat_checkpoint.exe *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module P = Pncdf.Pnetcdf
module V = Verifyio

let nranks = 4
let cells_per_rank = 8
let steps = 6
let checkpoint_every = 3

let encode field =
  let b = Bytes.create (Array.length field * 8) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v)) field;
  b

let decode bytes =
  Array.init
    (Bytes.length bytes / 8)
    (fun i -> Int64.float_of_bits (Bytes.get_int64_le bytes (i * 8)))

let simulation ~proper (ctx : E.ctx) sys =
  let comm = M.comm_world ctx in
  let rank = ctx.E.rank in
  (* Initial condition: a hot spot on rank 0. *)
  let field =
    Array.init cells_per_rank (fun i -> if rank = 0 && i = 0 then 100.0 else 0.0)
  in
  let exchange_halos () =
    (* Send boundary cells to neighbours, receive theirs. *)
    let left = rank - 1 and right = rank + 1 in
    let reqs = ref [] in
    if left >= 0 then reqs := M.irecv ctx ~src:left ~tag:0 ~comm :: !reqs;
    if right < nranks then reqs := M.irecv ctx ~src:right ~tag:1 ~comm :: !reqs;
    if left >= 0 then
      M.send ctx ~dst:left ~tag:1 ~comm (encode [| field.(0) |]);
    if right < nranks then
      M.send ctx ~dst:right ~tag:0 ~comm (encode [| field.(cells_per_rank - 1) |]);
    let halo_left = ref 0.0 and halo_right = ref 0.0 in
    List.iteri
      (fun _ req ->
        let data, st = M.wait ctx req in
        let v = (decode data).(0) in
        if st.M.st_tag = 0 then halo_left := v else halo_right := v)
      (List.rev !reqs);
    (!halo_left, !halo_right)
  in
  let step () =
    let hl, hr = exchange_halos () in
    let prev = Array.copy field in
    for i = 0 to cells_per_rank - 1 do
      let l = if i = 0 then if rank = 0 then prev.(0) else hl else prev.(i - 1) in
      let r =
        if i = cells_per_rank - 1 then
          if rank = nranks - 1 then prev.(i) else hr
        else prev.(i + 1)
      in
      field.(i) <- prev.(i) +. (0.25 *. (l -. (2.0 *. prev.(i)) +. r))
    done
  in
  (* Create the checkpoint file: one record per checkpoint. *)
  let nc = P.create ctx sys ~comm "/heat.nc" in
  let time = P.def_dim ctx nc ~name:"time" ~len:0 in
  let x = P.def_dim ctx nc ~name:"x" ~len:(nranks * cells_per_rank) in
  let temp = P.def_var ctx nc ~name:"temperature" P.Double ~dims:[ time; x ] in
  P.put_att_text ctx nc ~name:"title" "1-D heat equation checkpoints";
  P.enddef ctx nc;
  let ckpt = ref 0 in
  for s = 1 to steps do
    step ();
    if s mod checkpoint_every = 0 then begin
      (* Collective write of this rank's slab of the current record. *)
      P.put_vara_all ctx nc temp
        ~start:[ !ckpt; rank * cells_per_rank ]
        ~count:[ 1; cells_per_rank ] (encode field);
      incr ckpt
    end
  done;
  P.sync_numrecs ctx nc;
  if proper then begin
    P.sync ctx nc;
    P.close ctx nc
  end;
  M.barrier ctx comm;
  (* "Restart": read the last checkpoint back — every rank reads the WHOLE
     field (it needs neighbours' slabs to rebuild halos), which crosses
     rank boundaries. *)
  let nc2 =
    if proper then P.open_ ctx sys ~comm "/heat.nc" else nc
  in
  let last = !ckpt - 1 in
  let back =
    P.get_vara_all ctx nc2 temp ~start:[ last; 0 ]
      ~count:[ 1; nranks * cells_per_rank ]
  in
  let restored = decode back in
  if rank = 0 then
    Printf.printf "  restart field (first cells): %s...\n"
      (String.concat " "
         (List.init 4 (fun i -> Printf.sprintf "%.3f" restored.(i))));
  if (not proper) && true then M.barrier ctx comm;
  P.close ctx nc2

let run_variant ~proper =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let sys = P.create_system ~fs () in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx -> simulation ~proper ctx sys);
  Recorder.Trace.records trace

let () =
  List.iter
    (fun proper ->
      Printf.printf "== %s checkpoint/restart ==\n"
        (if proper then "Proper (sync + close/reopen)" else "Sloppy (barrier-only)");
      let records = run_variant ~proper in
      Printf.printf "  %d trace records\n" (List.length records);
      let p = V.Pipeline.prepare ~nranks records in
      List.iter
        (fun (m : V.Model.t) ->
          let o = V.Pipeline.verify_prepared ~model:m p in
          Printf.printf "  %-8s : %s\n" m.V.Model.name
            (if V.Pipeline.is_properly_synchronized o then "ok"
             else Printf.sprintf "%d race(s)" o.V.Pipeline.race_count))
        V.Model.builtin;
      print_newline ())
    [ true; false ];
  print_endline
    "Both variants restarted correctly on this POSIX run; the verifier\n\
     shows only the proper variant is safe to move to a relaxed-consistency\n\
     file system."
