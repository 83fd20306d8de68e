(* Tests for conflict detection: the interval sweep against a brute-force
   O(n^2) oracle on random operation sets, group structure, and the
   cross-rank / write-required / same-file rules of Def. 4. *)

module E = Mpisim.Engine
module F = Posixfs.Fs
module V = Verifyio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let collect ~nranks program =
  let trace = Recorder.Trace.create ~nranks in
  let fs = F.create ~trace ~model:F.posix () in
  let eng = E.create ~trace ~nranks () in
  E.run eng (fun ctx -> program ctx fs);
  Recorder.Trace.records trace

let groups_of ~nranks program =
  let d = V.Estore.of_records ~nranks (collect ~nranks program) in
  (d, V.Conflict.detect d)

(* ------------------------------------------------------------------ *)

let test_write_write_overlap () =
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:4 (Bytes.make 8 'x'));
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "one conflicting pair" 1 (V.Conflict.distinct_pairs groups);
  check_int "two mirrored groups" 2 (List.length groups)

let test_read_read_no_conflict () =
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        ignore (F.pread fs ~rank:ctx.E.rank fd ~off:0 ~len:16);
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "reads never conflict" 0 (V.Conflict.distinct_pairs groups)

let test_same_rank_no_conflict () =
  let _, groups =
    groups_of ~nranks:1 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 8 'a'));
        ignore (F.pwrite fs ~rank:0 fd ~off:4 (Bytes.make 8 'b'));
        ignore (F.pread fs ~rank:0 fd ~off:0 ~len:16);
        F.close fs ~rank:0 fd)
  in
  check_int "same-process accesses are program-ordered, not conflicts" 0
    (V.Conflict.distinct_pairs groups)

let test_different_files_no_conflict () =
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let path = Printf.sprintf "/f%d" ctx.E.rank in
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] path in
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:0 (Bytes.make 8 'x'));
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "distinct files" 0 (V.Conflict.distinct_pairs groups)

let test_adjacent_ranges_no_conflict () =
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        (* [0,8) and [8,16): touching but not overlapping. *)
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:(ctx.E.rank * 8) (Bytes.make 8 'x'));
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "adjacent is not overlapping" 0 (V.Conflict.distinct_pairs groups)

let test_touching_boundary_cases () =
  (* [0,8) vs [8,16) share only the boundary offset (oe = os): no overlap.
     A third access [7,9) straddles the boundary and conflicts with both
     cross-rank writes. *)
  let _, groups =
    groups_of ~nranks:3 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        (match ctx.E.rank with
        | 0 -> ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 8 'a'))
        | 1 -> ignore (F.pwrite fs ~rank:1 fd ~off:8 (Bytes.make 8 'b'))
        | _ -> ignore (F.pwrite fs ~rank:2 fd ~off:7 (Bytes.make 2 'c')));
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "only the straddler conflicts, once per neighbour" 2
    (V.Conflict.distinct_pairs groups)

let test_zero_length_never_conflicts () =
  (* A zero-length write carries an empty interval: it must not pair with
     anything, even when its offset lies inside a non-empty write. *)
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        (if ctx.E.rank = 0 then
           ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 16 'a'))
         else begin
           ignore (F.pwrite fs ~rank:1 fd ~off:4 Bytes.empty);
           ignore (F.pread fs ~rank:1 fd ~off:8 ~len:0)
         end);
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "empty intervals are exempt" 0 (V.Conflict.distinct_pairs groups)

let test_duplicate_offsets () =
  (* Several ops with the identical interval on each side: the sweep's
     order-by-offset tie-breaking must still produce every cross-rank
     pair exactly once. *)
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:4 (Bytes.make 4 'x'));
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:4 (Bytes.make 4 'y'));
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "2x2 identical intervals" 4 (V.Conflict.distinct_pairs groups);
  check_int "mirrored groups, one per op" 4 (List.length groups)

let test_group_structure () =
  (* Rank 0 writes [0,16); ranks 1 and 2 each read pieces of it twice. *)
  let d, groups =
    groups_of ~nranks:3 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        if ctx.E.rank = 0 then
          ignore (F.pwrite fs ~rank:0 fd ~off:0 (Bytes.make 16 'w'))
        else begin
          ignore (F.pread fs ~rank:ctx.E.rank fd ~off:0 ~len:4);
          ignore (F.pread fs ~rank:ctx.E.rank fd ~off:8 ~len:4)
        end;
        F.close fs ~rank:ctx.E.rank fd)
  in
  check_int "4 distinct pairs" 4 (V.Conflict.distinct_pairs groups);
  (* The write's group maps both peer ranks to two ops each, in program
     order. *)
  let write_group =
    List.find
      (fun (g : V.Conflict.group) ->
        V.Estore.is_write d g.V.Conflict.x)
      groups
  in
  check_int "two peer ranks" 2 (List.length write_group.V.Conflict.peers);
  List.iter
    (fun (rank, ops) ->
      check_bool "peer ranks are 1 and 2" true (rank = 1 || rank = 2);
      check_int "two ops each" 2 (Array.length ops);
      check_bool "program order" true (ops.(0) < ops.(1)))
    write_group.V.Conflict.peers

let test_pair_counts () =
  let _, groups =
    groups_of ~nranks:2 (fun ctx fs ->
        let fd = F.openf fs ~rank:ctx.E.rank ~flags:[ F.O_CREAT; F.O_RDWR ] "/f" in
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:0 (Bytes.make 4 'x'));
        ignore (F.pwrite fs ~rank:ctx.E.rank fd ~off:2 (Bytes.make 4 'y'));
        F.close fs ~rank:ctx.E.rank fd)
  in
  (* 2 writes per rank, all overlapping across ranks: 4 unordered pairs. *)
  check_int "distinct" 4 (V.Conflict.distinct_pairs groups);
  check_int "total is twice distinct" 8 (V.Conflict.total_pairs groups)

(* Brute-force oracle over the decoded data ops. *)
let brute_force_pairs (d : V.Estore.t) =
  let datas =
    List.filter_map
      (fun i ->
        if V.Estore.is_data d i && not (Vio_util.Interval.is_empty (V.Estore.iv d i))
        then
          Some
            ( i,
              V.Estore.rank d i,
              V.Estore.fid d i,
              V.Estore.is_write d i,
              V.Estore.iv d i )
        else None)
      (List.init (V.Estore.length d) Fun.id)
  in
  let pairs = ref [] in
  List.iter
    (fun (i1, r1, f1, w1, v1) ->
      List.iter
        (fun (i2, r2, f2, w2, v2) ->
          if
            i1 < i2 && r1 <> r2 && f1 = f2 && (w1 || w2)
            && Vio_util.Interval.overlaps v1 v2
          then pairs := (i1, i2) :: !pairs)
        datas)
    datas;
  List.sort compare !pairs

let pairs_of_groups groups =
  List.concat_map
    (fun (g : V.Conflict.group) ->
      List.concat_map
        (fun (_, ops) ->
          Array.to_list ops
          |> List.filter_map (fun y ->
                 if g.V.Conflict.x < y then Some (g.V.Conflict.x, y) else None))
        g.V.Conflict.peers)
    groups
  |> List.sort_uniq compare

let prop_sweep_matches_brute_force =
  QCheck2.Test.make ~name:"interval sweep = brute force on random programs"
    ~count:60
    QCheck2.Gen.(
      pair (int_range 1 10000)
        (pair (int_range 2 4) (int_range 3 15)))
    (fun (seed, (nranks, ops_per_rank)) ->
      let d, groups =
        groups_of ~nranks (fun ctx fs ->
            let rank = ctx.E.rank in
            let fd =
              F.openf fs ~rank ~flags:[ F.O_CREAT; F.O_RDWR ]
                (if seed mod 3 = 0 then Printf.sprintf "/f%d" (rank mod 2)
                 else "/shared")
            in
            let state = ref (seed + (rank * 977)) in
            let next () =
              state := ((!state * 75) + 74) mod 65537;
              !state
            in
            for _ = 1 to ops_per_rank do
              let off = next () mod 40 and len = 1 + (next () mod 6) in
              if next () mod 2 = 0 then
                ignore (F.pwrite fs ~rank fd ~off (Bytes.make len 'p'))
              else ignore (F.pread fs ~rank fd ~off ~len)
            done;
            F.close fs ~rank fd)
      in
      pairs_of_groups groups = brute_force_pairs d)

let () =
  Alcotest.run "conflict"
    [
      ( "rules",
        [
          Alcotest.test_case "write/write overlap" `Quick test_write_write_overlap;
          Alcotest.test_case "read/read exempt" `Quick test_read_read_no_conflict;
          Alcotest.test_case "same rank exempt" `Quick test_same_rank_no_conflict;
          Alcotest.test_case "different files exempt" `Quick
            test_different_files_no_conflict;
          Alcotest.test_case "adjacent exempt" `Quick
            test_adjacent_ranges_no_conflict;
          Alcotest.test_case "touching boundary" `Quick
            test_touching_boundary_cases;
          Alcotest.test_case "zero-length exempt" `Quick
            test_zero_length_never_conflicts;
          Alcotest.test_case "duplicate offsets" `Quick test_duplicate_offsets;
        ] );
      ( "groups",
        [
          Alcotest.test_case "structure" `Quick test_group_structure;
          Alcotest.test_case "pair counts" `Quick test_pair_counts;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sweep_matches_brute_force;
        ] );
    ]
