(** In-memory span recorder for the traced run.

    A span is a named interval with the span that caused it and the
    request it belongs to. Spans stay in memory until {!write} dumps them
    as JSON lines at the end of the run, so recording costs one
    allocation per span and no I/O. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  req : int;  (** request id; children inherit their parent's *)
  t0 : float;  (** start, seconds since the epoch *)
  t1 : float;  (** end *)
}

type t

val create : unit -> t

val with_span : t -> ?req:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span whose parent is the innermost open span
    (if any). The span is recorded even when the thunk raises. *)

val add :
  t -> ?parent:int -> req:int -> string -> t0:float -> t1:float -> int
(** Record a span measured elsewhere (a client call, a duration the
    daemon reported) and return its id, usable as a [parent]. *)

val spans : t -> span list
(** Every recorded span, in order of creation. *)

val self_time : span list -> span -> float
(** [self_time all s]: the span's duration minus the part of it that its
    direct children in [all] cover (overlapping children count once).
    Partially applied to [all], it indexes the children once. *)

val self_times : span list -> (string * float) list
(** {!self_time} summed per span name, sorted by name. *)

val write : t -> string -> unit
(** One JSON object per line:
    [{"id":3,"name":"graph.build","parent":1,"req":7,"start":..,"end":..}]. *)
