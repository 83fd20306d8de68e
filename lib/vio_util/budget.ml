type t = {
  limit : int;
  mutable used : int;
  started : float;  (* epoch seconds at creation *)
  timeout_ms : int option;
}

exception Exhausted of { stage : string; limit : int; used : int }

exception
  Deadline_exceeded of { stage : string; timeout_ms : int; elapsed_ms : int }

let create ?timeout_ms limit =
  if limit < 1 then invalid_arg "Budget.create: limit must be positive";
  (match timeout_ms with
  | Some ms when ms < 1 ->
    invalid_arg "Budget.create: timeout_ms must be positive"
  | _ -> ());
  { limit; used = 0; started = Unix.gettimeofday (); timeout_ms }

let timer ~timeout_ms () =
  if timeout_ms < 1 then invalid_arg "Budget.timer: timeout_ms must be positive";
  {
    limit = max_int;
    used = 0;
    started = Unix.gettimeofday ();
    timeout_ms = Some timeout_ms;
  }

let limit t = t.limit

let used t = t.used

let remaining t = max 0 (t.limit - t.used)

let exhausted t = t.used > t.limit

let spend t ~stage n =
  if n < 0 then invalid_arg "Budget.spend: negative amount";
  t.used <- t.used + n;
  if t.used > t.limit then
    raise (Exhausted { stage; limit = t.limit; used = t.used });
  match t.timeout_ms with
  | None -> ()
  | Some timeout_ms ->
    let elapsed_ms =
      int_of_float ((Unix.gettimeofday () -. t.started) *. 1000.)
    in
    if elapsed_ms > timeout_ms then
      raise (Deadline_exceeded { stage; timeout_ms; elapsed_ms })

let describe = function
  | Exhausted { stage; limit; used } ->
    Some
      (Printf.sprintf "budget exhausted during %s (%d of %d steps)" stage used
         limit)
  | Deadline_exceeded { stage; timeout_ms; elapsed_ms } ->
    Some
      (Printf.sprintf "deadline exceeded during %s (%d ms elapsed, limit %d ms)"
         stage elapsed_ms timeout_ms)
  | _ -> None
