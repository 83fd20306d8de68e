module E = Mpisim.Engine
module F = Posixfs.Fs

type library = Hdf5 | Netcdf | Pnetcdf

let library_name = function
  | Hdf5 -> "HDF5"
  | Netcdf -> "NetCDF"
  | Pnetcdf -> "PnetCDF"

type expectation = {
  exp_posix : bool;
  exp_relaxed : bool;
  exp_unmatched : bool;
}

type env = {
  fs : F.t;
  h5 : Hdf5sim.H5.system;
  nc : Netcdfsim.Netcdf.system;
  pn : Pncdf.Pnetcdf.system;
  pn_buggy : Pncdf.Pnetcdf.system;
}

type t = {
  name : string;
  library : library;
  nranks : int;
  scale : int;
  expect : expectation;
  program : scale:int -> Mpisim.Engine.ctx -> env -> unit;
}

let clean = { exp_posix = true; exp_relaxed = true; exp_unmatched = false }

let relaxed_racy = { exp_posix = true; exp_relaxed = false; exp_unmatched = false }

let posix_racy = { exp_posix = false; exp_relaxed = false; exp_unmatched = false }

let unmatched = { exp_posix = true; exp_relaxed = true; exp_unmatched = true }

let run ?scale ?abort_rank w =
  let scale = Option.value ~default:w.scale scale in
  let trace = Recorder.Trace.create ~nranks:w.nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let env =
    {
      fs;
      h5 = Hdf5sim.H5.create_system ~fs;
      nc = Netcdfsim.Netcdf.create_system ~fs;
      pn = Pncdf.Pnetcdf.create_system ~fs ();
      pn_buggy = Pncdf.Pnetcdf.create_system ~bug_split_wait:true ~fs ();
    }
  in
  let eng = E.create ~trace ~nranks:w.nranks () in
  (try E.run ?abort_rank eng (fun ctx -> w.program ~scale ctx env)
   with E.Deadlock _ | E.Mismatch _ -> ());
  Recorder.Trace.records trace

let verify ?scale ?engine w =
  let p = Verifyio.Pipeline.prepare ?engine ~nranks:w.nranks (run ?scale w) in
  List.map
    (fun model -> (model, Verifyio.Pipeline.verify_prepared ~model p))
    Verifyio.Model.builtin

let matches_expectation w outcomes =
  List.for_all
    (fun ((m : Verifyio.Model.t), (o : Verifyio.Pipeline.outcome)) ->
      let unmatched_ok = (o.Verifyio.Pipeline.unmatched <> []) = w.expect.exp_unmatched in
      let raceless = o.Verifyio.Pipeline.races = [] in
      let race_ok =
        if w.expect.exp_unmatched then true  (* gray rows: verdict undefined *)
        else if m.Verifyio.Model.name = "POSIX" then raceless = w.expect.exp_posix
        else raceless = w.expect.exp_relaxed
      in
      unmatched_ok && race_ok)
    outcomes
