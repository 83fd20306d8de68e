module H = Workloads.Harness
module Reg = Workloads.Registry

type workload = Corpus | Wide | Ingest | Serve

let all_workloads = [ Corpus; Wide; Ingest; Serve ]

let workload_name = function
  | Corpus -> "corpus"
  | Wide -> "wide"
  | Ingest -> "ingest"
  | Serve -> "serve"

let workload_of_name s =
  List.find_opt (fun w -> workload_name w = s) all_workloads

type item = {
  file : string;
  program : string;
  scale : int;
  nranks : int;
  records : int;
}

let wide_ranks ~smoke = if smoke then 8 else 48

(* These three raise Nc_error away from their native rank count. *)
let native_only = [ "transpose"; "block_cyclic"; "column_wise" ]

(* About 30 records per timestep across the four ranks: 20k steps give
   the ~600k-record trace the workload is sized for. *)
let heat_steps ~smoke = if smoke then 200 else 20_000

(* Smoke mode keeps every library represented and stays under a second. *)
let smoke_programs =
  [ "t_pread"; "shapesame"; "t_mpi"; "tst_parallel5"; "tst_atts_par";
    "flexible"; "null_args"; "put_vara_int" ]

let programs ~smoke =
  if smoke then List.filter (fun (w : H.t) -> List.mem w.H.name smoke_programs) Reg.all
  else Reg.all

(* Serve's inputs are written through to disk: otherwise the daemon's
   first fsyncs in the timed phase would also flush them. The other
   workloads only read their inputs, and an fsync per file would put the
   disk's latency into their set-up time. *)
let write ~sync file contents =
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length contents in
      let rec go off = if off < n then go (off + Unix.write_substring fd contents off (n - off)) in
      go 0;
      if sync then Unix.fsync fd)

let write_trace ~sync ~dir ~program ~scale ~nranks records =
  let file = Filename.concat dir (Printf.sprintf "%s-s%d.vtb" program scale) in
  write ~sync file (Recorder.Codec.encode_binary ~nranks records);
  { file; program; scale; nranks; records = List.length records }

let run_program ~sync ~dir ?(scale = 1) (w : H.t) =
  write_trace ~sync ~dir ~program:w.H.name ~scale ~nranks:w.H.nranks (H.run ~scale w)

let manifest dir = Filename.concat dir "manifest.tsv"

let generate wl ~seed ~smoke ~dir =
  Vio_util.Fsio.ensure_dir dir;
  let sync = wl = Serve in
  let run_program = run_program ~sync in
  let items =
    match wl with
    | Corpus -> List.map (run_program ~dir) (programs ~smoke)
    | Wide ->
      programs ~smoke
      |> List.filter (fun (w : H.t) -> not (List.mem w.H.name native_only))
      |> List.map (fun (w : H.t) ->
             run_program ~dir { w with H.nranks = wide_ranks ~smoke })
    | Serve ->
      List.concat_map
        (fun scale -> List.map (run_program ~dir ~scale) (programs ~smoke))
        (if smoke then [ 1; 2 ] else [ 1; 2; 3 ])
    | Ingest ->
      [
        write_trace ~sync ~dir ~program:"heat_checkpoint" ~scale:1 ~nranks:Heat.nranks
          (Heat.records ~steps:(heat_steps ~smoke) ~seed);
      ]
  in
  write ~sync (manifest dir)
    (String.concat ""
       (List.map
          (fun i ->
            Printf.sprintf "%s\t%s\t%d\t%d\t%d\n" (Filename.basename i.file) i.program
              i.scale i.nranks i.records)
          items))

let load dir =
  In_channel.with_open_text (manifest dir) In_channel.input_lines
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ f; program; scale; nranks; records ] ->
           {
             file = Filename.concat dir f;
             program;
             scale = int_of_string scale;
             nranks = int_of_string nranks;
             records = int_of_string records;
           }
         | _ -> failwith ("bad manifest line: " ^ line))

let expected i = Reg.find i.program
