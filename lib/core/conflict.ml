module E = Estore

type group = { x : int; peers : (int * int array) list }

type ival = { os : int; oe : int; write : bool; rank : int; idx : int }

(* Sweep one file's intervals (§IV-B): sorted by start offset; for each
   interval, later-starting intervals are scanned until one starts past
   its end. Returns the file's conflict groups in no particular order —
   anchors are unique to a file, so the caller's global sort by anchor is
   a deterministic merge. *)
let sweep_file (arr : ival array) =
  Array.sort
    (fun a b ->
      let c = compare a.os b.os in
      if c <> 0 then c else compare a.oe b.oe)
    arr;
  (* conflicts.(anchor) : rank -> op idx list (reversed) *)
  let conflicts : (int, (int, int list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let note ~anchor ~peer_rank ~peer =
    let per_rank =
      match Hashtbl.find_opt conflicts anchor with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace conflicts anchor t;
        t
    in
    let cell =
      match Hashtbl.find_opt per_rank peer_rank with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.replace per_rank peer_rank c;
        c
    in
    cell := peer :: !cell
  in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let a = arr.(i) in
    let j = ref (i + 1) in
    (* Later intervals start at or after a.os; once one starts past
       a.oe, none of the rest overlaps a. *)
    while !j < n && arr.(!j).os < a.oe do
      let b = arr.(!j) in
      if a.rank <> b.rank && (a.write || b.write) then begin
        note ~anchor:a.idx ~peer_rank:b.rank ~peer:b.idx;
        note ~anchor:b.idx ~peer_rank:a.rank ~peer:a.idx
      end;
      incr j
    done
  done;
  Hashtbl.fold
    (fun anchor per_rank acc ->
      let peers =
        Hashtbl.fold
          (fun rank cell acc ->
            let ops = Array.of_list !cell in
            Array.sort compare ops;
            (* Program order within a rank is op-index order; duplicates
               cannot occur (each pair noted once per direction). *)
            (rank, ops) :: acc)
          per_rank []
        |> List.sort (fun (r1, _) (r2, _) -> compare r1 r2)
      in
      { x = anchor; peers } :: acc)
    conflicts []

let detect (e : E.t) =
  (* Gather intervals per file id. Iterating op indices ascending and
     consing leaves each file's intervals in descending-index order. The
     pair set does not depend on that order, nor on how the sweep's
     unstable sort orders ties: of two intervals with equal [os], the
     one sorted first scans on to the other, which starts before the
     first one ends, so the pair is found either way; and every cell is
     sorted before output. test_conflict's "interval sweep = brute
     force" property checks the result. *)
  let by_fid : (int, ival list ref) Hashtbl.t = Hashtbl.create 16 in
  let n = E.length e in
  for i = 0 to n - 1 do
    if E.is_data e i then begin
      let os = E.iv_lo e i and oe = E.iv_hi e i in
      if os < oe then begin
        let cell =
          match Hashtbl.find_opt by_fid (E.fid e i) with
          | Some c -> c
          | None ->
            let c = ref [] in
            Hashtbl.replace by_fid (E.fid e i) c;
            c
        in
        cell := { os; oe; write = E.is_write e i; rank = E.rank e i; idx = i } :: !cell
      end
    end
  done;
  (* Files are independent (conflicts never cross fids) and anchors are
     unique to a file, so sweeping them in any order and sorting by
     anchor gives one deterministic result. *)
  Hashtbl.fold
    (fun _ cell acc -> List.rev_append (sweep_file (Array.of_list !cell)) acc)
    by_fid []
  |> List.sort (fun a b -> compare a.x b.x)

let group_pairs g =
  List.fold_left (fun acc (_, ops) -> acc + Array.length ops) 0 g.peers

let total_pairs groups = List.fold_left (fun acc g -> acc + group_pairs g) 0 groups

let distinct_pairs groups = total_pairs groups / 2
