type timer = { count : int; total : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;
  timers : (string * timer) list;
}

module Smap = Map.Make (String)

(* Counters are lock-free: each name owns an [int Atomic.t] cell, and the
   name->cell map is an immutable [Smap.t] swapped in with compare-and-set
   (insertion is rare — the counter-name set is small and stable — while
   bumps are the Batch hot path, so bumps must not serialize on a global
   mutex). A cell, once published, is never replaced; [reset] swaps in an
   empty map, so stale cells can no longer be observed. *)
let counters : int Atomic.t Smap.t Atomic.t = Atomic.make Smap.empty

let rec counter_cell name =
  let m = Atomic.get counters in
  match Smap.find_opt name m with
  | Some c -> c
  | None ->
    let c = Atomic.make 0 in
    if Atomic.compare_and_set counters m (Smap.add name c m) then c
    else counter_cell name

let incr ?(n = 1) name = ignore (Atomic.fetch_and_add (counter_cell name) n)

(* Timers stay under a mutex: a min/max/total update is not a single
   fetch-and-add, and timer observations happen once per stage, not per
   work item, so contention is structurally impossible. *)
let lock = Mutex.create ()

let timers : (string, timer) Hashtbl.t = Hashtbl.create 64

let protect f = Mutex.protect lock f

let observe name dt =
  protect (fun () ->
      let t =
        match Hashtbl.find_opt timers name with
        | None -> { count = 1; total = dt; min = dt; max = dt }
        | Some t ->
          {
            count = t.count + 1;
            total = t.total +. dt;
            min = Float.min t.min dt;
            max = Float.max t.max dt;
          }
      in
      Hashtbl.replace timers name t)

let time name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe name (Unix.gettimeofday () -. t0)) f

let reset () =
  Atomic.set counters Smap.empty;
  protect (fun () -> Hashtbl.reset timers)

let snapshot () =
  let cs =
    Smap.fold
      (fun k c acc -> (k, Atomic.get c) :: acc)
      (Atomic.get counters) []
    |> List.rev
  in
  let ts =
    protect (fun () ->
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) timers []))
  in
  { counters = cs; timers = ts }

let find_counter s name = Option.value ~default:0 (List.assoc_opt name s.counters)

let find_timer s name = List.assoc_opt name s.timers
