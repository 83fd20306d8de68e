type t =
  | Ok
  | Raised of string
  | Out_of_budget
  | Timed_out
  | Refused
  | Quarantined
  | Wrong_verdict of string

let failed = function Ok -> false | _ -> true

let of_response (r : Serve.Spool.response) =
  match r.Serve.Spool.r_status with
  | "done" when r.Serve.Spool.r_exit = 6 -> Out_of_budget
  | "done" -> Ok
  | "timed_out" -> Timed_out
  | "quarantined" -> Quarantined
  | "overloaded" | "rejected" -> Refused
  | s -> Raised ("unknown response status " ^ s)

let describe = function
  | Ok -> "ok"
  | Raised e -> "raised: " ^ e
  | Out_of_budget -> "out of budget"
  | Timed_out -> "timed out"
  | Refused -> "refused"
  | Quarantined -> "quarantined"
  | Wrong_verdict why -> "wrong verdict: " ^ why

let errors outcomes = List.filter_map (function Ok -> None | o -> Some (describe o)) outcomes

type tally = { attempted : int; failed : int }

let tally outcomes =
  {
    attempted = List.length outcomes;
    failed = List.length (List.filter failed outcomes);
  }

let failed_share t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
