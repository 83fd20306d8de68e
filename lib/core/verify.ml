module Intbuf = Vio_util.Intbuf

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

(* Pair keys are [a * nops + b] and the memo stores [key lsl 1]; both fit
   a 63-bit int while nops < 2^30. *)
let max_ops = 1 lsl 30

(* The ordered-pair memo: one open-addressing int array whose slots hold
   [key lsl 1 lor verdict], or [empty]. Its length is a power of two
   [1 lsl bits], probed linearly from a multiplicative hash of the key,
   and it doubles at half load. *)
type memo = {
  mutable slots : int array;
  mutable bits : int;
  mutable count : int;
}

let empty = -1

(* Fibonacci hashing: the top [bits] bits of [key * 2^63 / phi] (the odd
   multiplier reads negative as a 63-bit int). *)
let home key bits = (key * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

(* The slot holding [key], or the empty slot where it belongs. *)
let rec probe slots key i =
  let e = slots.(i) in
  if e = empty || e lsr 1 = key then i
  else probe slots key ((i + 1) land (Array.length slots - 1))

let grow m =
  let bits = m.bits + 1 in
  let slots = Array.make (1 lsl bits) empty in
  Array.iter
    (fun e ->
      if e <> empty then
        let key = e lsr 1 in
        slots.(probe slots key (home key bits)) <- e)
    m.slots;
  m.slots <- slots;
  m.bits <- bits

let run ?(pruning = true) ?(degraded = no_degradation)
    ?(partial = no_degradation) ?budget model reach sidx (d : Estore.t)
    groups =
  let nops = Estore.length d in
  if nops >= max_ops then invalid_arg "Verify.run: 2^30 or more operations";
  let checks = ref 0 in
  let fast = ref 0 in
  let check = Msc.properly_synchronized model reach sidx in
  (* Memoize pair verdicts: the pruning rules revisit boundary pairs, and
     every unordered pair appears in two mirrored groups. *)
  let memo = { slots = Array.make 256 empty; bits = 8; count = 0 } in
  let ps a b =
    let key = (a * nops) + b in
    let i = probe memo.slots key (home key memo.bits) in
    let e = memo.slots.(i) in
    if e <> empty then e land 1 = 1
    else begin
      incr checks;
      (match budget with
      | Some b -> Vio_util.Budget.spend b ~stage:"verify" 1
      | None -> ());
      let v = check ~x:a ~y:b in
      memo.slots.(i) <- (key lsl 1) lor Bool.to_int v;
      memo.count <- memo.count + 1;
      if 2 * memo.count > Array.length memo.slots then grow memo;
      v
    end
  in
  let rule_hits = Array.make 4 0 in
  (* Racy pairs as [min * nops + max], in the order they are noted. *)
  let racy = Intbuf.create () in
  let note_race a b =
    Intbuf.push racy (if a < b then (a * nops) + b else (b * nops) + a)
  in
  let decide x ys =
    let n = Array.length ys in
    if n > 0 then
      if not pruning then
        for i = 0 to n - 1 do
          let y = ys.(i) in
          if not (ps x y || ps y x) then note_race x y
        done
      else if ps x ys.(0) then begin
        (* rule 1: whole group safe *)
        incr fast;
        rule_hits.(0) <- rule_hits.(0) + 1
      end
      else begin
        (* The Y -ps-> X direction is only monotone in program order
           within one access kind: Def. 6 synchronizes a read by plain
           happens-before but a write by a full MSC instantiation, so a
           read Y can be properly synchronized before X while an earlier
           (or later) write Y is not. Rules 2 and 4 therefore take their
           boundary ops per kind: the first and last read and write of
           [ys], -1 where [ys] has none of a kind. *)
        let first_read = ref (-1) and last_read = ref (-1) in
        let first_write = ref (-1) and last_write = ref (-1) in
        for i = 0 to n - 1 do
          let y = ys.(i) in
          if Estore.is_write d y then begin
            if !first_write < 0 then first_write := y;
            last_write := y
          end
          else begin
            if !first_read < 0 then first_read := y;
            last_read := y
          end
        done;
        let last_read = !last_read and last_write = !last_write in
        if
          (last_read < 0 || ps last_read x)
          && (last_write < 0 || ps last_write x)
        then begin
          (* rule 2, per kind *)
          incr fast;
          rule_hits.(1) <- rule_hits.(1) + 1
        end
        else begin
          (* Rules 3 and 4 suppress whole directions. *)
          let x_may_precede = ps x ys.(n - 1) in
          let first_read = !first_read and first_write = !first_write in
          let read_may_precede = first_read >= 0 && ps first_read x in
          let write_may_precede = first_write >= 0 && ps first_write x in
          if not x_may_precede then rule_hits.(2) <- rule_hits.(2) + 1;
          if not (read_may_precede || write_may_precede) then
            rule_hits.(3) <- rule_hits.(3) + 1;
          for i = 0 to n - 1 do
            let y = ys.(i) in
            let y_may_precede =
              if Estore.is_write d y then write_may_precede
              else read_may_precede
            in
            let ok = (x_may_precede && ps x y) || (y_may_precede && ps y x) in
            if not ok then note_race x y
          done
        end
      end
  in
  List.iter
    (fun (g : Conflict.group) ->
      List.iter (fun (_rank, ys) -> decide g.Conflict.x ys) g.Conflict.peers)
    groups;
  (* Each racy pair was noted from both of its mirrored groups: sort the
     keys once, then build the list back to front, one race per distinct
     key. A verdict that rests on a degraded op (or a degraded portion of
     the trace) is only as good as what survived decoding; one that rests
     on a rank with unmatched MPI calls holds only modulo the ordering
     those calls would have contributed. *)
  let keys = Array.sub racy.Intbuf.buf 0 racy.Intbuf.len in
  Vio_util.Intsort.sort keys;
  let last = Array.length keys - 1 in
  let race_list = ref [] in
  for i = last downto 0 do
    let key = keys.(i) in
    if i = last || keys.(i + 1) <> key then begin
      let a = key / nops and b = key mod nops in
      let confidence =
        if degraded a || degraded b then Under_degradation
        else if partial a || partial b then Under_partial_order
        else Definite
      in
      race_list := { rx = a; ry = b; confidence } :: !race_list
    end
  done;
  ( !race_list,
    {
      groups = List.length groups;
      pairs = Conflict.distinct_pairs groups;
      ps_checks = !checks;
      fast_groups = !fast;
      rule_hits;
    } )
