(* The PnetCDF `flexible` data race of paper Fig. 5.

   The program defines a 2-D variable, fills it at ncmpi_enddef (every rank
   writes NULLs to a distinct region), then writes column blocks with
   ncmpi_put_vara_all. The column selection installs a strided MPI file
   view, which makes ROMIO-style collective buffering aggregate the second
   write at rank 0 — whose merged pwrite overlaps the fill regions every
   OTHER rank wrote moments before. The conflict is happens-before ordered
   (fine under POSIX) but has no MPI-IO sync construct between the two
   writes: an MPI-IO semantics violation inside the library, invisible to
   the application.

   Run with: dune exec examples/flexible_aggregation.exe *)

module M = Mpisim.Mpi
module R = Recorder.Record
module V = Verifyio

let () =
  let w =
    match Workloads.Registry.find "flexible" with
    | Some w -> w
    | None -> failwith "flexible workload missing"
  in
  let records = Workloads.Harness.run w in
  print_endline "== Who physically wrote the file? ==";
  List.iter
    (fun (r : R.t) ->
      if r.func = "pwrite" || r.func = "pread" then
        Format.printf "  rank %d %-6s  %a@." r.rank r.func R.pp_call_chain r)
    records;
  print_endline
    "\nNote the pattern shift: each rank pwrites its own fill region under\n\
     ncmpi_enddef, but the put_vara_all data lands through rank 0 alone —\n\
     the aggregator of the two-phase collective write.";

  print_endline "\n== Verification ==";
  let p = V.Pipeline.prepare ~nranks:w.Workloads.Harness.nranks records in
  List.iter
    (fun (m : V.Model.t) ->
      let o = V.Pipeline.verify_prepared ~model:m p in
      Printf.printf "  %-8s : %s\n" m.V.Model.name
        (if o.V.Pipeline.races = [] then "properly synchronized"
         else Printf.sprintf "%d data race(s)" o.V.Pipeline.race_count))
    V.Model.builtin;

  print_endline "\n== One reported race, with the call chains ==";
  let o = V.Pipeline.verify_prepared ~model:V.Model.mpi_io p in
  print_string (V.Report.race_report ~limit:1 o);
  print_endline
    "\nBoth sides sit below library entry points (ncmpi_enddef vs\n\
     ncmpi_put_vara_*): the race is a library-implementation issue, not an\n\
     application bug — the paper's S:V-C1 conclusion."
