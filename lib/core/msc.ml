module E = Estore

type sync_index = {
  d : E.t;
  per_rank : int array array;  (* sync-op idxs per rank, program order *)
}

let is_sync_op d i =
  let t = E.kind_tag d i in
  t = E.tag_open || t = E.tag_close || t = E.tag_sync

let filter p a = Array.of_seq (Seq.filter p (Array.to_seq a))

let build_index (d : E.t) =
  {
    d;
    per_rank =
      Array.init (E.nranks d) (fun rank ->
          filter (is_sync_op d) (E.rank_chain d rank));
  }

let sync_op_count t =
  Array.fold_left (fun n syncs -> n + Array.length syncs) 0 t.per_rank

module Itbl = Hashtbl.Make (Int)

(* One predicate's matching sync ops per rank, filtered once per file on
   first use. *)
type view = { pred : Model.sync_pred; by_fid : int array array Itbl.t }

(* A compiled MSC: [edges.(i)] enters sync step [i], served by
   [views.(i)], and the last edge reaches Y. [to_y.(i)] holds when every
   edge after step [i] is po, which pins that step to Y's rank. *)
type chain = { edges : Model.edge array; views : view array; to_y : bool array }

let matching t v ~fid =
  match Itbl.find v.by_fid fid with
  | ranks -> ranks
  | exception Not_found ->
    let ranks =
      Array.map
        (filter (fun s -> v.pred.Model.sp_matches t.d s ~fid))
        t.per_rank
    in
    Itbl.add v.by_fid fid ranks;
    ranks

(* The first index in [lo, hi) whose sync comes after op [v] in program
   order, or [hi]. *)
let rec first_after a v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) > v then first_after a v lo mid else first_after a v (mid + 1) hi

(* The first index in [lo, hi) whose sync [src] reaches, or [hi]: the
   reached syncs of one rank form a suffix of its program order. *)
let rec first_reached reach src a lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Reach.reaches reach src a.(mid) then first_reached reach src a lo mid
    else first_reached reach src a (mid + 1) hi

(* Can chain [c] be completed from [from] with step [i] next? Each step
   tries one sync per rank, the earliest the incoming edge admits: if a
   later sync on that rank completes the chain, so does the earlier one,
   because po ⊆ hb. *)
let rec holds t reach c ~fid ~y ~from i =
  if i = Array.length c.views then
    (* the last edge, into Y *)
    match c.edges.(i) with
    | Model.Po -> E.rank t.d from = E.rank t.d y && from < y
    | Model.Hb -> Reach.reaches reach from y
  else
    let ranks = matching t c.views.(i) ~fid in
    match c.edges.(i) with
    | Model.Po ->
      let a = ranks.(E.rank t.d from) in
      let j = first_after a from 0 (Array.length a) in
      j < Array.length a && holds t reach c ~fid ~y ~from:a.(j) (i + 1)
    | Model.Hb ->
      if c.to_y.(i) then via t reach c ~fid ~y ~from i ranks.(E.rank t.d y)
      else any_rank t reach c ~fid ~y ~from i ranks 0

and via t reach c ~fid ~y ~from i a =
  let j = first_reached reach from a 0 (Array.length a) in
  j < Array.length a && holds t reach c ~fid ~y ~from:a.(j) (i + 1)

and any_rank t reach c ~fid ~y ~from i ranks r =
  r < Array.length ranks
  && (via t reach c ~fid ~y ~from i ranks.(r)
     || any_rank t reach c ~fid ~y ~from i ranks (r + 1))

let rec any_chain t reach chains ~fid ~x ~y =
  match chains with
  | [] -> false
  | c :: rest ->
    holds t reach c ~fid ~y ~from:x 0 || any_chain t reach rest ~fid ~x ~y

let properly_synchronized model reach t =
  let pool = ref [] in
  let view_of pred =
    match List.find_opt (fun v -> v.pred == pred) !pool with
    | Some v -> v
    | None ->
      let v = { pred; by_fid = Itbl.create 8 } in
      pool := v :: !pool;
      v
  in
  let compile (m : Model.msc) =
    let edges = Array.of_list m.Model.edges in
    let views = Array.of_list (List.map view_of m.Model.syncs) in
    let k = Array.length views in
    if Array.length edges <> k + 1 then invalid_arg "Msc: malformed MSC";
    let to_y = Array.make k false in
    for i = k - 1 downto 0 do
      to_y.(i) <- edges.(i + 1) = Model.Po && (i = k - 1 || to_y.(i + 1))
    done;
    { edges; views; to_y }
  in
  let chains = List.map compile model.Model.mscs in
  let d = t.d in
  fun ~x ~y ->
    if not (E.is_data d x) then
      invalid_arg "Msc.properly_synchronized: x is not a data op";
    if not (E.is_data d y) then
      invalid_arg "Msc.properly_synchronized: y is not a data op";
    if E.fid d x <> E.fid d y then
      invalid_arg "Msc.properly_synchronized: operations on different files";
    if not (E.is_write d x) then
      (* Def. 6 case 1: a read is properly synchronized before Y iff it
         happens-before Y. *)
      Reach.reaches reach x y
    else any_chain t reach chains ~fid:(E.fid d x) ~x ~y
