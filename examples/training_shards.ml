(* A miniature data-parallel training job — the AI workload the paper's
   introduction names alongside simulations.

   Rank 0 preprocesses a dataset into shards inside one HDF5 file (one
   dataset per shard). Each epoch, every rank reads a different shard
   (round-robin reshuffle) and the job appends per-epoch metrics to a
   shared metrics dataset. Shard reads cross rank boundaries (everyone
   reads data rank 0 wrote), so the synchronization discipline between the
   preprocessing step and the first epoch decides portability:

   - variant A closes and reopens the file after preprocessing: safe
     under every consistency model;
   - variant B just barriers: safe only on POSIX file systems — exactly
     the pattern that breaks when a training cluster mounts a relaxed
     burst-buffer file system.

   Run with: dune exec examples/training_shards.exe *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module H5 = Hdf5sim.H5
module V = Verifyio

let nranks = 4
let shard_bytes = 32
let epochs = 3

let job ~proper (ctx : E.ctx) sys =
  let comm = M.comm_world ctx in
  let rank = ctx.E.rank in
  (* --- Preprocessing: rank 0 writes every shard. --- *)
  let file = H5.h5fcreate ctx sys ~comm "/dataset.h5" in
  let data_grp = H5.h5gcreate ctx file ~name:"shards" () in
  let shards =
    List.init nranks (fun k ->
        H5.h5dcreate ctx ~loc:data_grp file
          ~name:(Printf.sprintf "shard%d" k)
          ~dims:[ shard_bytes ] ~esize:1)
  in
  let metrics =
    H5.h5dcreate ctx file ~name:"metrics" ~dims:[ epochs; nranks ] ~esize:8
  in
  if rank = 0 then
    List.iteri
      (fun k d ->
        H5.h5dwrite ctx d H5.Independent
          (Bytes.make shard_bytes (Char.chr (Char.code 'A' + k))))
      shards;
  (* Hand off from preprocessing to training. *)
  let file, shards, metrics =
    if proper then begin
      H5.h5fflush ctx file;
      H5.h5fclose ctx file;
      M.barrier ctx comm;
      let f = H5.h5fopen ctx sys ~comm "/dataset.h5" in
      let grp = H5.h5gopen ctx f ~name:"shards" () in
      let shards =
        List.init nranks (fun k ->
            H5.h5dopen ctx ~loc:grp f ~name:(Printf.sprintf "shard%d" k))
      in
      (f, shards, H5.h5dopen ctx f ~name:"metrics")
    end
    else begin
      M.barrier ctx comm;
      (file, shards, metrics)
    end
  in
  (* --- Training loop: shards reshuffle round-robin per epoch. --- *)
  let loss = ref 1.0 in
  for epoch = 0 to epochs - 1 do
    let my_shard = List.nth shards ((rank + epoch) mod nranks) in
    let batch = H5.h5dread ctx my_shard H5.Independent in
    (* "Train": fold the bytes into a fake loss. *)
    Bytes.iter (fun c -> loss := !loss *. 0.99 +. (float_of_int (Char.code c) *. 1e-5)) batch;
    (* All-reduce the loss like a gradient, then rank-slot metric write. *)
    let scaled = int_of_float (!loss *. 1_000_000.) in
    let req = M.iallreduce ctx ~op:M.Sum ~comm [| scaled |] in
    let sum = (M.wait_ints ctx req).(0) in
    let cell = Bytes.create 8 in
    Bytes.set_int64_le cell 0 (Int64.of_int sum);
    H5.h5dwrite ctx metrics
      ~sel:(H5.Hyperslab { start = [ epoch; rank ]; count = [ 1; 1 ] })
      H5.Independent cell;
    M.barrier ctx comm
  done;
  H5.h5fclose ctx file

let run_variant ~proper =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let sys = H5.create_system ~fs in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx -> job ~proper ctx sys);
  Recorder.Trace.records trace

let () =
  List.iter
    (fun proper ->
      Printf.printf "== %s ==\n"
        (if proper then "Variant A: flush + close/reopen after preprocessing"
         else "Variant B: barrier-only hand-off");
      let p = V.Pipeline.prepare ~nranks (run_variant ~proper) in
      List.iter
        (fun (m : V.Model.t) ->
          let o = V.Pipeline.verify_prepared ~model:m p in
          Printf.printf "  %-8s : %s\n" m.V.Model.name
            (if V.Pipeline.is_properly_synchronized o then "ok"
             else Printf.sprintf "%d race(s)" o.V.Pipeline.race_count))
        V.Model.builtin;
      (* Show the grouped diagnosis for the sloppy variant. *)
      if not proper then begin
        let o = V.Pipeline.verify_prepared ~model:V.Model.mpi_io p in
        print_newline ();
        print_string (V.Report.grouped_report o)
      end;
      print_newline ())
    [ true; false ]
