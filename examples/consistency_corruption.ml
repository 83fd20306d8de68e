(* Running one program against every file-system consistency model.

   A producer/consumer program (rank 0 writes a record, rank 1 reads it
   after a barrier) executes on three simulated file systems: POSIX,
   commit-consistency (UnifyFS-style) and session-consistency
   (close-to-open). The bytes rank 1 observes differ across systems; the
   verifier predicts exactly which systems are safe from the POSIX-run
   trace alone.

   Run with: dune exec examples/consistency_corruption.exe *)

module E = Mpisim.Engine
module M = Mpisim.Mpi
module F = Posixfs.Fs
module V = Verifyio

type variant = { label : string; sync : [ `None | `Fsync | `Close_reopen ] }

let run_variant variant fsmodel =
  let nranks = 2 in
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:fsmodel () in
  let seen = ref "" in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx ->
      let rank = ctx.E.rank in
      let comm = M.comm_world ctx in
      let fd = F.openf fs ~rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/rec.dat" in
      if rank = 0 then begin
        ignore (F.pwrite fs ~rank fd ~off:0 (Bytes.of_string "record-1"));
        match variant.sync with
        | `None -> ()
        | `Fsync -> F.fsync fs ~rank fd
        | `Close_reopen -> F.fsync fs ~rank fd
      end;
      (match variant.sync with
      | `Close_reopen -> F.close fs ~rank fd
      | `None | `Fsync -> ());
      M.barrier ctx comm;
      let fd =
        match variant.sync with
        | `Close_reopen -> F.openf fs ~rank ~flags:[ F.O_RDWR ] "/rec.dat"
        | `None | `Fsync -> fd
      in
      if rank = 1 then begin
        let got = F.pread fs ~rank fd ~off:0 ~len:8 in
        seen := Bytes.to_string got
      end;
      F.close fs ~rank fd);
  (Recorder.Trace.records trace, !seen)

let () =
  let variants =
    [
      { label = "barrier only"; sync = `None };
      { label = "fsync + barrier"; sync = `Fsync };
      { label = "fsync + close/reopen"; sync = `Close_reopen };
    ]
  in
  Printf.printf "%-22s | %-10s %-10s %-10s | verifier prediction\n" "program variant"
    "POSIX fs" "Commit fs" "Session fs";
  print_endline (String.make 100 '-');
  List.iter
    (fun variant ->
      let observed =
        List.map
          (fun fsmodel ->
            let _, seen = run_variant variant fsmodel in
            if seen = "record-1" then "ok" else "STALE")
          [ F.posix; F.commit; F.session ]
      in
      (* The prediction comes from verifying the POSIX-run trace. *)
      let records, _ = run_variant variant F.posix in
      let prediction =
        let p = V.Pipeline.prepare ~nranks:2 records in
        List.filter_map
          (fun (m : V.Model.t) ->
            if m.V.Model.name = "MPI-IO" then None
            else
              Some
                (Printf.sprintf "%s:%s" m.V.Model.name
                   (if
                      V.Pipeline.is_properly_synchronized
                        (V.Pipeline.verify_prepared ~model:m p)
                    then "safe"
                    else "racy")))
          V.Model.builtin
      in
      Printf.printf "%-22s | %-10s %-10s %-10s | %s\n" variant.label
        (List.nth observed 0) (List.nth observed 1) (List.nth observed 2)
        (String.concat " " prediction))
    variants;
  print_endline
    "\nEvery \"safe\" prediction is guaranteed to read correctly on that\n\
     system. A \"racy\" prediction means some schedule can observe stale\n\
     data — the barrier-only row shows it happening; the fsync+barrier row\n\
     on the session system merely got lucky with this schedule (the reader\n\
     opened after the publication), which is exactly why data races of this\n\
     kind are so hard to catch by testing and need trace verification."
