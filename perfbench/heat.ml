(* The ingest workload's program: examples/heat_checkpoint.ml (proper
   variant) scaled to a long run. A 1-D heat stencil on four ranks
   exchanges halo cells every timestep and writes the field as one record
   of a PnetCDF record variable every timestep, then syncs, closes,
   reopens and reads the last record back as a restart would. Only the
   trace matters here; the seed moves the initial hot spot and the
   simulator's scheduling order. *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module P = Pncdf.Pnetcdf

let nranks = 4
let cells_per_rank = 8

let encode field =
  let b = Bytes.create (Array.length field * 8) in
  Array.iteri
    (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v))
    field;
  b

let decode bytes =
  Array.init
    (Bytes.length bytes / 8)
    (fun i -> Int64.float_of_bits (Bytes.get_int64_le bytes (i * 8)))

let simulation ~steps ~hot (ctx : E.ctx) sys =
  let comm = M.comm_world ctx in
  let rank = ctx.E.rank in
  let field =
    Array.init cells_per_rank (fun i ->
        if (rank * cells_per_rank) + i = hot then 100.0 else 0.0)
  in
  let exchange_halos () =
    let left = rank - 1 and right = rank + 1 in
    let reqs = ref [] in
    if left >= 0 then reqs := M.irecv ctx ~src:left ~tag:0 ~comm :: !reqs;
    if right < nranks then reqs := M.irecv ctx ~src:right ~tag:1 ~comm :: !reqs;
    if left >= 0 then M.send ctx ~dst:left ~tag:1 ~comm (encode [| field.(0) |]);
    if right < nranks then
      M.send ctx ~dst:right ~tag:0 ~comm (encode [| field.(cells_per_rank - 1) |]);
    let halo_left = ref 0.0 and halo_right = ref 0.0 in
    List.iter
      (fun req ->
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
        if i = cells_per_rank - 1 then if rank = nranks - 1 then prev.(i) else hr
        else prev.(i + 1)
      in
      field.(i) <- prev.(i) +. (0.25 *. (l -. (2.0 *. prev.(i)) +. r))
    done
  in
  let nc = P.create ctx sys ~comm "/heat.nc" in
  let time = P.def_dim ctx nc ~name:"time" ~len:0 in
  let x = P.def_dim ctx nc ~name:"x" ~len:(nranks * cells_per_rank) in
  let temp = P.def_var ctx nc ~name:"temperature" P.Double ~dims:[ time; x ] in
  P.put_att_text ctx nc ~name:"title" "1-D heat equation checkpoints";
  P.enddef ctx nc;
  for s = 0 to steps - 1 do
    step ();
    P.put_vara_all ctx nc temp
      ~start:[ s; rank * cells_per_rank ]
      ~count:[ 1; cells_per_rank ] (encode field)
  done;
  P.sync_numrecs ctx nc;
  P.sync ctx nc;
  P.close ctx nc;
  M.barrier ctx comm;
  let nc2 = P.open_ ctx sys ~comm "/heat.nc" in
  ignore
    (P.get_vara_all ctx nc2 temp ~start:[ steps - 1; 0 ]
       ~count:[ 1; nranks * cells_per_rank ]);
  P.close ctx nc2

let records ~steps ~seed =
  let trace = Recorder.Trace.create ~nranks in
  let fs = Posixfs.Fs.create ~trace ~model:Posixfs.Fs.posix () in
  let sys = P.create_system ~fs () in
  let eng = E.create ~trace ~sched_seed:seed ~nranks () in
  let hot = abs seed mod (nranks * cells_per_rank) in
  E.run eng (fun ctx -> simulation ~steps ~hot ctx sys);
  Recorder.Trace.records trace
