(* Consistency-model differential campaign (PR 10, @model-smoke): 300
   seeds of Extended-profile workloads (checkpoint/restart, cross-rank
   handoffs, third-party fsyncs, read-modify-write, ftruncate), each
   verified under the ENTIRE model registry — the builtin four plus
   Close-to-open, Commit-PS and MPI-IO-Atomic — two ways:

   - differential: every optimized subject (all five reach engines,
     sequential, shared, batch) against the brute-force oracle, via
     [Viogen.Diff.check_program ~models];
   - lattice: for every registry pair with [Model.implies m1 m2], the
     race set under m2 must be a subset of the race set under m1 — the
     semantic meaning of the strength order, checked on real verdicts.

   The full campaign also demands that the generator genuinely
   distinguishes each new model from its nearest neighbour at least once
   (Close-to-open vs Session, Commit-PS vs Commit) and that MPI-IO-Atomic
   NEVER diverges from POSIX (they are equivalent in the lattice).

   [--smoke] replays one hand-picked witness seed per new model — found
   by the full campaign — asserting the same distinguishing behaviour,
   fast enough for every [dune runtest].

   Exits 1 on any divergence or lattice violation, printing the seed so
   the failure reproduces with [Viogen.Workload.generate ~profile:Extended]. *)

module V = Verifyio

let race_set (o : V.Pipeline.outcome) =
  List.sort_uniq compare
    (List.map
       (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry))
       o.V.Pipeline.races)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Witness seeds from the 300-seed campaign: the first seed whose trace
   separates each new model from its nearest lattice neighbour. *)
let smoke_seeds = [ 41000; 41001; 41002 ]

(* [--witness DIR]: find the first seed whose trace separates each new
   model from its lattice neighbour, shrink it with the differential
   shrinker while preserving the split, and write the result into DIR —
   the committed corpus witnesses (model_c2o_vs_session.vio-trace,
   model_commit_ps_vs_commit.vio-trace). *)
let write_witnesses dir =
  let find name =
    match V.Model.by_name name with
    | Some m -> m
    | None -> failwith ("registry lost " ^ name)
  in
  let rs m q =
    let records = Viogen.Workload.run q in
    race_set
      (V.Pipeline.verify_prepared ~model:m
         (V.Pipeline.prepare ~nranks:q.Viogen.Workload.nranks records))
  in
  List.iter
    (fun (file, strong, weak) ->
      let m1 = find strong and m2 = find weak in
      (* the crispest witness: racy under the strong model, clean under
         the implied one — the verdict flip the lattice edge permits *)
      let split q = rs m1 q <> [] && rs m2 q = [] in
      let rec hunt seed =
        if seed > 41999 then failwith ("no splitting seed for " ^ file)
        else
          let p =
            Viogen.Workload.generate ~nranks:(2 + (seed mod 3))
              ~max_steps:(10 + (seed mod 12))
              ~profile:Viogen.Workload.Extended ~seed ()
          in
          if split p then (seed, p) else hunt (seed + 1)
      in
      let seed, p = hunt 41000 in
      let small = Viogen.Diff.shrink ~interesting:split p in
      let records = Viogen.Workload.run small in
      let path = Filename.concat dir (file ^ ".vio-trace") in
      let oc = open_out path in
      output_string oc
        (Recorder.Codec.encode ~nranks:small.Viogen.Workload.nranks records);
      close_out oc;
      Printf.printf
        "witness %s: seed %d, shrunk %d -> %d step(s), %s %s / %s %s\n" path
        seed
        (List.length p.Viogen.Workload.steps)
        (List.length small.Viogen.Workload.steps)
        m1.V.Model.name
        (if rs m1 small = [] then "clean" else "racy")
        m2.V.Model.name
        (if rs m2 small = [] then "clean" else "racy"))
    [
      ("model_c2o_vs_session", "c2o", "session");
      ("model_commit_ps_vs_commit", "commit-ps", "commit");
    ]

let () =
  let smoke = Array.exists (( = ) "--smoke") (Sys.argv :> string array) in
  (match Array.to_list Sys.argv with
  | _ :: "--witness" :: dir :: _ ->
    write_witnesses dir;
    exit 0
  | _ -> ());
  let models = V.Model.all () in
  let find name =
    match V.Model.by_name name with
    | Some m -> m
    | None -> failwith ("registry lost " ^ name)
  in
  let c2o = find "c2o"
  and session = find "session"
  and commit_ps = find "commit-ps"
  and commit = find "commit"
  and atomic = find "atomic"
  and posix = find "posix" in
  let seeds = if smoke then smoke_seeds else List.init 300 (fun i -> 41000 + i) in
  let failures = ref 0 in
  let c2o_split = ref 0 and ps_split = ref 0 in
  List.iteri
    (fun i seed ->
      let p =
        Viogen.Workload.generate
          ~nranks:(2 + (i mod 3))
          ~max_steps:(10 + (i mod 12))
          ~profile:Viogen.Workload.Extended ~seed ()
      in
      let divs = Viogen.Diff.check_program ~models p in
      if divs <> [] then begin
        incr failures;
        List.iter
          (fun d ->
            Format.printf "DIVERGENCE seed %d: %a@." seed
              Viogen.Diff.pp_divergence d)
          divs
      end;
      let records = Viogen.Workload.run p in
      let nranks = p.Viogen.Workload.nranks in
      let prepared = V.Pipeline.prepare ~nranks records in
      let verdicts =
        List.map
          (fun m -> (m, race_set (V.Pipeline.verify_prepared ~model:m prepared)))
          models
      in
      let races m =
        try List.assq m verdicts with Not_found -> failwith "missing verdict"
      in
      List.iter
        (fun (m1, r1) ->
          List.iter
            (fun (m2, r2) ->
              if m1 != m2 && V.Model.implies m1 m2 && not (subset r2 r1)
              then begin
                incr failures;
                Printf.printf
                  "LATTICE VIOLATION seed %d: %s implies %s but a %s race is \
                   not a %s race\n"
                  seed m1.V.Model.name m2.V.Model.name m2.V.Model.name
                  m1.V.Model.name
              end)
            verdicts)
        verdicts;
      if races c2o <> races session then incr c2o_split;
      if races commit_ps <> races commit then incr ps_split;
      if races atomic <> races posix then begin
        incr failures;
        Printf.printf "EQUIVALENCE VIOLATION seed %d: MPI-IO-Atomic diverged \
                       from POSIX\n" seed
      end;
      if (not smoke) && (i + 1) mod 50 = 0 then
        Printf.printf "model campaign: %d/%d seeds done\n%!" (i + 1)
          (List.length seeds))
    seeds;
  if !c2o_split = 0 then begin
    incr failures;
    print_endline
      "UNDER-COVERAGE: no seed distinguished Close-to-open from Session"
  end;
  if !ps_split = 0 then begin
    incr failures;
    print_endline
      "UNDER-COVERAGE: no seed distinguished Commit-PS from Commit"
  end;
  if !failures = 0 then begin
    Printf.printf
      "model campaign: %d seeds x %d models, zero divergences (c2o/session \
       split on %d, commit-ps/commit on %d)\n"
      (List.length seeds) (List.length models) !c2o_split !ps_split;
    exit 0
  end
  else begin
    Printf.printf "model campaign: %d failure(s)\n" !failures;
    exit 1
  end
