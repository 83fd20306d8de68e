type policy =
  | Off
  | Fail of int
  | Fail_prob of float * int
  | Delay of int
  | Short_io of int
  | Bitflip of int

exception Injected of { site : string; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
      Some (Printf.sprintf "injected fault at failpoint %s (hit %d)" site hit)
    | _ -> None)

let known_sites =
  [
    ("codec.read", "opening a trace file in the codec (short read, bitflip)");
    ("batch.worker", "entry of every batch job execution");
    ("fsio.atomic_write", "start of a stage-then-rename write");
    ("fsio.fsync", "every durability fsync (staging files, journal appends)");
    ("fsio.rename", "publishing rename of a staged artifact");
    ("fsio.append", "journal append (short write tears the tail)");
    ("cache.store", "verdict cache store (daemon degrades to uncached)");
  ]

type site_state = { policy : policy; count : int Atomic.t }

(* Written only by [set]/[configure]/[clear] — the activation side, which
   the contract confines to one domain before workers spawn. Sites read
   concurrently, which is safe against a quiescent table. *)
let table : (string, site_state) Hashtbl.t = Hashtbl.create 16

let on = Atomic.make false

let enabled () = Atomic.get on

let set ~site policy =
  if not (List.mem_assoc site known_sites) then
    invalid_arg (Printf.sprintf "Failpoint.set: unknown site %S" site);
  Hashtbl.replace table site { policy; count = Atomic.make 0 };
  Atomic.set on
    (Hashtbl.fold (fun _ s acc -> acc || s.policy <> Off) table false)

let clear () =
  Hashtbl.reset table;
  Atomic.set on false

(* Deterministic per-(seed, hit) pseudo-randomness: a splitmix-style
   finalizer over the pair, good enough to decorrelate consecutive hits
   while staying replayable from the spec alone. *)
let mix seed k =
  let z = ref ((seed * 0x9E3779B1) lxor (k * 0x85EBCA77) land max_int) in
  z := (!z lxor (!z lsr 15)) * 0x2C1B3C6D land max_int;
  z := (!z lxor (!z lsr 12)) * 0x297A2D39 land max_int;
  !z lxor (!z lsr 15)

let rand01 seed k = float_of_int (mix seed k land 0xFFFFFF) /. 16777216.

let find site =
  match Hashtbl.find_opt table site with
  | Some s when s.policy <> Off -> Some s
  | _ -> None

let hit site =
  if Atomic.get on then
    match find site with
    | None -> ()
    | Some s -> (
      let k = Atomic.fetch_and_add s.count 1 + 1 in
      match s.policy with
      | Fail n -> if k = n then raise (Injected { site; hit = k })
      | Fail_prob (p, seed) ->
        if rand01 seed k < p then raise (Injected { site; hit = k })
      | Delay ms -> Backoff.sleep_ms ms
      | Short_io _ | Bitflip _ | Off -> ())

let adjust_len site len =
  if not (Atomic.get on) then len
  else
    match find site with
    | Some { policy = Short_io n; count } ->
      ignore (Atomic.fetch_and_add count 1);
      min len (max 0 n)
    | _ -> len

let bitflip site ~len =
  if not (Atomic.get on) then None
  else
    match find site with
    | Some { policy = Bitflip seed; count } ->
      let k = Atomic.fetch_and_add count 1 + 1 in
      if len = 0 then None
      else Some (mix seed k mod len, mix seed (k + 1) mod 8)
    | _ -> None

let hit_count site =
  match Hashtbl.find_opt table site with
  | Some s -> Atomic.get s.count
  | None -> 0

(* ---- spec parsing ---- *)

let parse_policy s =
  let int_of str label =
    match int_of_string_opt str with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "%s wants a non-negative integer, got %S" label str)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ "off" ] -> Ok Off
  | [ "fail" ] -> (
    (* 'fail' or 'fail@N' *)
    Ok (Fail 1))
  | [ "delay"; ms ] ->
    let* ms = int_of ms "delay" in
    Ok (Delay ms)
  | [ "short"; n ] ->
    let* n = int_of n "short" in
    Ok (Short_io n)
  | [ "bitflip" ] -> Ok (Bitflip 1)
  | [ "bitflip"; seed ] ->
    let* seed = int_of seed "bitflip" in
    Ok (Bitflip seed)
  | [ "prob"; p ] | [ "prob"; p; _ ] -> (
    let seed =
      match String.split_on_char ':' s with
      | [ _; _; seed ] -> int_of seed "prob seed"
      | _ -> Ok 1
    in
    let* seed = seed in
    match float_of_string_opt p with
    | Some p when p >= 0. && p <= 1. -> Ok (Fail_prob (p, seed))
    | _ -> Error (Printf.sprintf "prob wants a probability in [0,1], got %S" p))
  | _ -> (
    (* 'fail@N' *)
    match String.index_opt s '@' with
    | Some i when String.sub s 0 i = "fail" ->
      let* n =
        int_of (String.sub s (i + 1) (String.length s - i - 1)) "fail@"
      in
      if n >= 1 then Ok (Fail n) else Error "fail@ wants a hit number >= 1"
    | _ -> Error (Printf.sprintf "unknown policy %S" s))

let parse_entry entry =
  match String.index_opt entry '=' with
  | None -> Error (Printf.sprintf "entry %S is not SITE=POLICY" entry)
  | Some i ->
    let site = String.trim (String.sub entry 0 i) in
    let pol = String.trim (String.sub entry (i + 1) (String.length entry - i - 1)) in
    if not (List.mem_assoc site known_sites) then
      Error
        (Printf.sprintf "unknown failpoint site %S (known: %s)" site
           (String.concat ", " (List.map fst known_sites)))
    else Result.map (fun p -> (site, p)) (parse_policy pol)

let configure spec =
  let entries =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
      match parse_entry e with
      | Ok pair -> go (pair :: acc) rest
      | Error e -> Error e)
  in
  match go [] entries with
  | Error e -> Error e
  | Ok pairs ->
    clear ();
    List.iter (fun (site, p) -> set ~site p) pairs;
    Ok ()
