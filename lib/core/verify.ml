type confidence = Definite | Under_partial_order | Under_degradation

type race = { rx : int; ry : int; confidence : confidence }

type stats = {
  groups : int;
  pairs : int;
  ps_checks : int;
  fast_groups : int;
  rule_hits : int array;
}

let no_degradation _ = false

module Itbl = Hashtbl.Make (Int)

let run ?(pruning = true) ?(degraded = no_degradation)
    ?(partial = no_degradation) ?budget model reach sidx (d : Estore.t)
    groups =
  let checks = ref 0 in
  let fast = ref 0 in
  let check = Msc.properly_synchronized model reach sidx in
  (* Memoize pair verdicts: the pruning rules revisit boundary pairs, and
     every unordered pair appears in two mirrored groups. *)
  let nops = Estore.length d in
  let memo = Itbl.create 256 in
  let ps a b =
    let key = (a * nops) + b in
    match Itbl.find memo key with
    | v -> v
    | exception Not_found ->
      incr checks;
      (match budget with
      | Some b -> Vio_util.Budget.spend b ~stage:"verify" 1
      | None -> ());
      let v = check ~x:a ~y:b in
      Itbl.add memo key v;
      v
  in
  let rule_hits = Array.make 4 0 in
  let races : (int * int, confidence) Hashtbl.t = Hashtbl.create 64 in
  let note_race a b =
    let key = (min a b, max a b) in
    (* A verdict that rests on a degraded op (or a degraded portion of the
       trace) is only as good as what survived decoding; one that rests on
       a rank with unmatched MPI calls holds only modulo the ordering
       those calls would have contributed. *)
    let confidence =
      if degraded a || degraded b then Under_degradation
      else if partial a || partial b then Under_partial_order
      else Definite
    in
    Hashtbl.replace races key confidence
  in
  List.iter
    (fun (g : Conflict.group) ->
      let x = g.Conflict.x in
      List.iter
        (fun (_rank, ys) ->
          let n = Array.length ys in
          if n > 0 then
            if not pruning then
              Array.iter
                (fun y -> if not (ps x y || ps y x) then note_race x y)
                ys
            else if ps x ys.(0) then begin
              (* rule 1: whole group safe *)
              incr fast;
              rule_hits.(0) <- rule_hits.(0) + 1
            end
            else begin
              (* The Y -ps-> X direction is only monotone in program order
                 within one access kind: Def. 6 synchronizes a read by plain
                 happens-before but a write by a full MSC instantiation, so
                 a read Y can be properly synchronized before X while an
                 earlier (or later) write Y is not. Rules 2 and 4 therefore
                 take their boundary ops per kind. *)
              let reads, writes =
                Array.to_list ys
                |> List.partition (fun y -> not (Estore.is_write d y))
              in
              let last_precedes = function
                | [] -> true
                | l -> ps (List.nth l (List.length l - 1)) x
              in
              if last_precedes reads && last_precedes writes then begin
                (* rule 2, per kind *)
                incr fast;
                rule_hits.(1) <- rule_hits.(1) + 1
              end
              else begin
                (* Rules 3 and 4 suppress whole directions. *)
                let x_may_precede = ps x ys.(n - 1) in
                let first_precedes = function [] -> false | y :: _ -> ps y x in
                let read_may_precede = first_precedes reads in
                let write_may_precede = first_precedes writes in
                if not x_may_precede then rule_hits.(2) <- rule_hits.(2) + 1;
                if not (read_may_precede || write_may_precede) then
                  rule_hits.(3) <- rule_hits.(3) + 1;
                Array.iter
                  (fun y ->
                    let y_may_precede =
                      if Estore.is_write d y then write_may_precede
                      else read_may_precede
                    in
                    let ok =
                      (x_may_precede && ps x y) || (y_may_precede && ps y x)
                    in
                    if not ok then note_race x y)
                  ys
              end
            end)
        g.Conflict.peers)
    groups;
  let race_list =
    Hashtbl.fold
      (fun (a, b) confidence acc -> { rx = a; ry = b; confidence } :: acc)
      races []
    |> List.sort (fun r1 r2 -> compare (r1.rx, r1.ry) (r2.rx, r2.ry))
  in
  ( race_list,
    {
      groups = List.length groups;
      pairs = Conflict.distinct_pairs groups;
      ps_checks = !checks;
      fast_groups = !fast;
      rule_hits;
    } )
