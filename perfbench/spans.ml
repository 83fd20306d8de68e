type span = {
  id : int;
  name : string;
  parent : int option;
  req : int;
  t0 : float;
  t1 : float;
}

(* Spans live in one unboxed float array, five slots each (name index,
   parent or -1, request, start, end). The collector never scans it, so
   a long traced run does not slow the major collections that the
   verifier's own allocations trigger, as a list of records would. *)
type t = {
  mutable cols : Float.Array.t;
  mutable n : int;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable open_ : (int * int) list;  (* (id, req) of open spans, innermost first *)
}

let width = 5

let create () =
  {
    cols = Float.Array.make (1024 * width) 0.;
    n = 0;
    names = Hashtbl.create 32;
    name_of = [||];
    open_ = [];
  }

let name_index t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names name i;
    t.name_of <- Array.append t.name_of [| name |];
    i

let set t id k v = Float.Array.set t.cols ((id * width) + k) v
let get t id k = Float.Array.get t.cols ((id * width) + k)

let reserve t ~name ~parent ~req =
  if (t.n + 1) * width > Float.Array.length t.cols then begin
    let bigger = Float.Array.make (2 * Float.Array.length t.cols) 0. in
    Float.Array.blit t.cols 0 bigger 0 (t.n * width);
    t.cols <- bigger
  end;
  let id = t.n in
  t.n <- id + 1;
  set t id 0 (float_of_int (name_index t name));
  set t id 1 (float_of_int (Option.value ~default:(-1) parent));
  set t id 2 (float_of_int req);
  id

let add t ?parent ~req name ~t0 ~t1 =
  let id = reserve t ~name ~parent ~req in
  set t id 3 t0;
  set t id 4 t1;
  id

let with_span t ?req name f =
  let parent, inherited =
    match t.open_ with
    | (p, r) :: _ -> (Some p, r)
    | [] -> (None, -1)
  in
  let req = Option.value ~default:inherited req in
  let id = reserve t ~name ~parent ~req in
  t.open_ <- (id, req) :: t.open_;
  set t id 3 (Unix.gettimeofday ());
  let finish () =
    set t id 4 (Unix.gettimeofday ());
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t =
  List.init t.n (fun id ->
      let p = int_of_float (get t id 1) in
      {
        id;
        name = t.name_of.(int_of_float (get t id 0));
        parent = (if p < 0 then None else Some p);
        req = int_of_float (get t id 2);
        t0 = get t id 3;
        t1 = get t id 4;
      })

(* Length of the union of the children's intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with
  | Some (a, b) -> total +. (b -. a)
  | None -> total

(* Self time of every span, by id: children are indexed by parent once,
   since traced runs record ~10^5 spans. *)
let self_time all =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      match c.parent with
      | Some p ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt kids p) in
        Hashtbl.replace kids p ((c.t0, c.t1) :: prev)
      | None -> ())
    all;
  fun s ->
    let ch = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
    s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 ch

let self_times all =
  let self = self_time all in
  let sums = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt sums s.name) in
      Hashtbl.replace sums s.name (self s +. prev))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [])

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%s,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id (Vio_util.Json.escape s.name)
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.req s.t0 s.t1)
    (spans t);
  close_out oc
