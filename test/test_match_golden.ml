(* Byte-for-byte gate for MPI matching.

   [golden_match.digest] holds one md5 per (viogen seed, input) over the
   rendered [Match_mpi.run] result: the events in order, the unmatched
   list in order, the communicator table, the diagnostics (rank, seq,
   fault, text) and [Match_mpi.inventory], or the exception text when
   strict matching raises. A rewrite of the matcher must reproduce every
   digest: the oracle campaigns call the production matcher on both
   sides, so this file is the matcher's only reference until an
   independent spec exists.

   Inputs per seed, each built by its own deterministic mutation:
   - [classic], [extended], [wide]: strict matching of a pristine viogen
     trace (Classic profile; Extended profile; Extended at 8-16 ranks);
   - [trunc]: lenient, after [Mutate.random_truncation];
   - [inject]: lenient, on the lenient decode of the text encoding after
     an [Inject] plan of corrupt, drop and duplicate faults;
   - [abort]: lenient, a run with one rank crashing mid-trace;
   - [mix]: strict, a seeded ring exchange that completes requests
     through Wait, Waitall, Test and Testsome and runs Iallreduce and
     Ibarrier on a Comm_dup communicator, none of which viogen emits;
   - [bulk]: strict, a synthetic point-to-point storm whose leftover
     receives and channels outgrow the matcher's initial table sizes;
   - [scribble-strict], [scribble-lenient] and their [wide-] and [mix-]
     twins on the [wide] and [mix] traces: MPI-layer arguments
     overwritten with non-integers, cut short or given bad completion
     lists, so the parse-failure paths, their texts and strict mode's
     first error are pinned.

   By default the gate replays the first 60 seeds (inside [dune runtest]);
   set [MATCH_SEEDS=300] for the whole campaign, as [@verdict-gates]
   does. Regenerate with [MATCH_GOLDEN_REGEN=<path> MATCH_SEEDS=300] only
   when a change to the matcher's output is intended and documented. *)

module V = Verifyio
module E = V.Estore
module M = V.Match_mpi
module R = Recorder.Record
module D = Recorder.Diagnostic
module W = Viogen.Workload

let seed_base = 1
let seed_count = 300

let ints l = String.concat "," (List.map string_of_int l)
let opt_int = function None -> "-" | Some i -> string_of_int i

let event_str = function
  | M.P2p { send; completion } -> Printf.sprintf "P(%d,%d)" send completion
  | M.Collective { parts; completed } ->
    Printf.sprintf "C(%s)%s"
      (String.concat ","
         (List.map (fun (i, c) -> Printf.sprintf "%d:%s" i (opt_int c)) parts))
      (if completed then "" else "!")

let unmatched_str = function
  | M.Mismatched_collective { comm; position; present; missing } ->
    Printf.sprintf "MC(c%d,p%d,[%s],[%s])" comm position
      (String.concat ","
         (List.map (fun (r, f) -> Printf.sprintf "%d:%s" r f) present))
      (ints missing)
  | M.Orphan_collective { comm; rank; op } ->
    Printf.sprintf "OC(c%d,r%d,o%d)" comm rank op
  | M.Unmatched_send i -> Printf.sprintf "US(%d)" i
  | M.Unmatched_recv i -> Printf.sprintf "UR(%d)" i

let diag_str (g : D.t) =
  Printf.sprintf "%s/%s/%s/%s/%S" (opt_int g.D.rank) (opt_int g.D.seq)
    (opt_int g.D.line)
    (D.fault_class_to_string g.D.fault)
    g.D.reason

let entry_str (e : M.entry) =
  Printf.sprintf "%s/r%d/c%s/s%s/%s/'%s'/[%s]" e.M.e_func e.M.e_rank
    (opt_int e.M.e_comm) (opt_int e.M.e_seq)
    (M.reason_to_string e.M.e_reason)
    e.M.e_detail (ints e.M.e_implicated)

let render ~mode ~nranks records =
  match E.of_records ~mode ~nranks records with
  | exception exn -> "store raised: " ^ Printexc.to_string exn
  | d -> (
    match M.run ~mode d with
    | exception exn -> "match raised: " ^ Printexc.to_string exn
    | r ->
      String.concat "\n"
        [
          "events " ^ String.concat ";" (List.map event_str r.M.events);
          "unmatched "
          ^ String.concat ";" (List.map unmatched_str r.M.unmatched);
          "comms "
          ^ String.concat ";"
              (List.map
                 (fun (id, ranks) ->
                   Printf.sprintf "%d:[%s]" id (ints (Array.to_list ranks)))
                 r.M.comm_ranks);
          "diags " ^ String.concat ";" (List.map diag_str r.M.diagnostics);
          "inventory "
          ^ String.concat ";" (List.map entry_str (M.inventory d r));
        ])

(* Overwrite arguments of about one MPI-layer record in five (one
   barrier in forty, so barriers do not hog the faults): a non-integer,
   a cut argument list, or a malformed completion list. *)
let scribble ~seed records =
  let st = Random.State.make [| seed; 0x5c1b |] in
  List.map
    (fun (r : R.t) ->
      let n = Array.length r.R.args in
      let odds = if r.R.func = "MPI_Barrier" then 40 else 5 in
      if r.R.layer <> R.Mpi || n = 0 || Random.State.int st odds <> 0 then r
      else
        let j = Random.State.int st n in
        let args =
          match Random.State.int st 4 with
          | 0 ->
            let a = Array.copy r.R.args in
            a.(j) <- "x";
            a
          | 1 -> Array.sub r.R.args 0 j
          | 2 ->
            let a = Array.copy r.R.args in
            a.(j) <- "1:2:3:4";
            a
          | _ ->
            let a = Array.copy r.R.args in
            a.(j) <- "1,2";
            a
        in
        { r with R.args })
    records

(* A seeded ring exchange that completes its requests through every
   completion call (Wait, Waitall, Test, Testsome) and runs nonblocking
   collectives on a duplicated communicator: viogen programs call none of
   Waitall, Test, Testsome, Iallreduce or Comm_dup. *)
let mix_records ~seed =
  let module En = Mpisim.Engine in
  let module Mp = Mpisim.Mpi in
  let nranks = 2 + (seed mod 4) in
  let trace = Recorder.Trace.create ~nranks in
  let eng = En.create ~trace ~sched_seed:seed ~nranks () in
  let program (ctx : En.ctx) =
    let world = Mp.comm_world ctx in
    let dup = Mp.comm_dup ctx world in
    let me = ctx.En.rank in
    let left = (me + nranks - 1) mod nranks and right = (me + 1) mod nranks in
    for round = 0 to 1 + (seed mod 3) do
      let comm = if round mod 2 = 0 then world else dup in
      let rreq = Mp.irecv ctx ~src:left ~tag:round ~comm in
      let sreq =
        Mp.isend ctx ~dst:right ~tag:round ~comm (Bytes.of_string "m")
      in
      (match (seed + round + me) mod 4 with
      | 0 -> ignore (Mp.waitall ctx [ rreq; sreq ])
      | 1 ->
        ignore (Mp.wait ctx rreq);
        ignore (Mp.wait ctx sreq)
      | 2 ->
        if Mp.test ctx rreq = None then ignore (Mp.wait ctx rreq);
        ignore (Mp.wait ctx sreq)
      | _ ->
        if Mp.testsome ctx [ rreq ] = [] then ignore (Mp.wait ctx rreq);
        ignore (Mp.waitall ctx [ sreq ]));
      let ar = Mp.iallreduce ctx ~op:Mp.Sum ~comm:dup [| me; round |] in
      ignore (Mp.wait_ints ctx ar);
      let ib = Mp.ibarrier ctx comm in
      ignore (Mp.waitall ctx [ ib ])
    done
  in
  (try En.run eng program with En.Deadlock _ | En.Mismatch _ -> ());
  (nranks, Recorder.Trace.records trace)

(* A synthetic point-to-point storm, built record by record: hundreds of
   posted receives per rank with colliding and reused request ids, waits
   on ids that were never posted, sends and receives over a few hundred
   (comm, src, dst, tag) channels and peers outside the communicator.
   Leftover receives and channels then outnumber the matcher's tables'
   initial sizes, and a burst of receives that are nearly all completed
   grows the posted-receive table past what its survivors need, so the
   order in which they are reported is pinned across table resizes. *)
let bulk_records ~seed =
  let st = Random.State.make [| seed; 0xb01c |] in
  let nranks = 2 + (seed mod 3) in
  let clock = ref 0 in
  let recs = ref [] in
  for rank = 0 to nranks - 1 do
    let seq = ref 0 in
    let emit func args =
      incr clock;
      recs :=
        {
          R.rank;
          seq = !seq;
          tstart = !clock;
          tend = !clock + 1;
          layer = R.Mpi;
          func;
          args = Array.of_list (List.map string_of_int args);
          ret = "0";
          call_path = [];
        }
        :: !recs;
      incr seq
    in
    let int n = Random.State.int st n in
    let peer () = if int 20 = 0 then nranks + 3 else int nranks in
    (* A burst that posts a few hundred receives and completes nearly
       all of them: the table grows past what its few survivors need. *)
    let burst = 100 + int 300 in
    for k = 0 to burst - 1 do
      emit "MPI_Irecv" [ peer (); int 40; 0; 10_000 + k ]
    done;
    for k = 0 to burst - 1 do
      if int 20 > 0 then emit "MPI_Wait" [ 10_000 + k; peer (); int 40 ]
    done;
    let rids = 200 + int 1000 in
    for _ = 1 to 300 + int 700 do
      match int 10 with
      | 0 | 1 | 2 -> emit "MPI_Irecv" [ peer (); int 40; 0; int rids ]
      | 3 | 4 -> emit "MPI_Wait" [ int rids; peer (); int 40 ]
      | 5 | 6 -> emit "MPI_Send" [ peer (); int 200; 0; 8 ]
      | 7 -> emit "MPI_Isend" [ peer (); int 40; 0; 8; int 400 ]
      | _ -> emit "MPI_Recv" [ peer (); int 40; 0; 8; peer (); int 200 ]
    done
  done;
  (nranks, List.rev !recs)

let inject_plan =
  [
    { Recorder.Inject.kind = Recorder.Inject.Corrupt_arg; rate = 0.04 };
    { Recorder.Inject.kind = Recorder.Inject.Drop_record; rate = 0.04 };
    { Recorder.Inject.kind = Recorder.Inject.Duplicate_record; rate = 0.04 };
  ]

(* (input name, rendered result) for one seed, in a fixed order: the
   simulator's handle counters are process-global, so traces depend on
   what ran before them in the process. *)
let seed_inputs seed =
  let p = W.generate ~seed () in
  let nranks = p.W.nranks in
  let records = W.run p in
  let strict = render ~mode:D.Strict in
  let lenient = render ~mode:D.Lenient in
  let classic = strict ~nranks records in
  let pe = W.generate ~profile:W.Extended ~seed () in
  let extended = strict ~nranks:pe.W.nranks (W.run pe) in
  let pw =
    W.generate ~profile:W.Extended ~nranks:(8 + (seed mod 9)) ~max_steps:24
      ~seed ()
  in
  let wide_records = W.run pw in
  let wide = strict ~nranks:pw.W.nranks wide_records in
  let trunc =
    lenient ~nranks
      (fst (Viogen.Mutate.random_truncation ~seed ~nranks records))
  in
  let inject =
    let faulted, _ =
      Recorder.Inject.apply inject_plan ~seed
        (Recorder.Codec.encode ~nranks records)
    in
    let dec = Recorder.Codec.decode_ext ~mode:D.Lenient faulted in
    lenient ~nranks:dec.Recorder.Codec.nranks dec.Recorder.Codec.records
  in
  let abort =
    lenient ~nranks (W.run ~abort_rank:(seed mod nranks, 1 + (seed mod 7)) p)
  in
  let mix_nranks, mix = mix_records ~seed in
  let bulk_nranks, bulk = bulk_records ~seed in
  let mix_scribbled = scribble ~seed mix in
  let scribbled = scribble ~seed records in
  let wide_scribbled = scribble ~seed wide_records in
  [
    ("classic", classic);
    ("extended", extended);
    ("wide", wide);
    ("trunc", trunc);
    ("inject", inject);
    ("abort", abort);
    ("scribble-strict", strict ~nranks scribbled);
    ("scribble-lenient", lenient ~nranks scribbled);
    ("wide-scribble-strict", strict ~nranks:pw.W.nranks wide_scribbled);
    ("wide-scribble-lenient", lenient ~nranks:pw.W.nranks wide_scribbled);
    ("mix", strict ~nranks:mix_nranks mix);
    ("mix-scribble-strict", strict ~nranks:mix_nranks mix_scribbled);
    ("mix-scribble-lenient", lenient ~nranks:mix_nranks mix_scribbled);
    ("bulk", strict ~nranks:bulk_nranks bulk);
  ]

let seed_lines seed =
  List.map
    (fun (input, text) ->
      Printf.sprintf "seed %d %s %s" seed input
        (Digest.to_hex (Digest.string text)))
    (seed_inputs seed)

let regen path seeds =
  let oc = open_out path in
  output_string oc
    "# Golden digests of Match_mpi.run, one md5 per (viogen seed, input).\n\
     # Regenerate with MATCH_GOLDEN_REGEN=<path> MATCH_SEEDS=300 \
     ./test_match_golden.exe\n";
  for i = 0 to seeds - 1 do
    List.iter
      (fun l -> output_string oc (l ^ "\n"))
      (seed_lines (seed_base + i))
  done;
  close_out oc;
  Printf.printf "wrote %s (%d seeds)\n%!" path seeds

let load_golden path =
  let ic = open_in path in
  let tbl = Hashtbl.create 4096 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | [ "seed"; s; input; _ ] ->
           Hashtbl.replace tbl (int_of_string s, input) line
         | _ -> failwith ("golden_match.digest: bad line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

let check seeds =
  let golden = load_golden "golden_match.digest" in
  let failures = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = seed_base + i in
    List.iter
      (fun line ->
        let input = List.nth (String.split_on_char ' ' line) 2 in
        match Hashtbl.find_opt golden (seed, input) with
        | Some want when want = line -> ()
        | want ->
          incr failures;
          Printf.printf "MISMATCH seed %d %s\n  golden: %s\n  now:    %s\n%!"
            seed input
            (Option.value want ~default:"<missing>")
            line)
      (seed_lines seed)
  done;
  Printf.printf "match gate: %d seeds replayed\n%!" seeds;
  if !failures > 0 then begin
    Printf.printf "match gate: %d mismatches\n%!" !failures;
    exit 1
  end;
  print_endline "match gate: all digests match"

let () =
  let seeds =
    match Option.bind (Sys.getenv_opt "MATCH_SEEDS") int_of_string_opt with
    | Some n -> n
    | None -> 60
  in
  match Sys.getenv_opt "MATCH_GOLDEN_REGEN" with
  | Some path -> regen path (max seeds seed_count)
  | None -> check (min seeds seed_count)
