(** A growable [int] array: pushes append, doubling the backing array
    when it is full, so hot loops can collect ints without a heap block
    per element. *)

type t = { mutable buf : int array; mutable len : int }
(** [buf.(0 .. len - 1)] are the ints pushed so far, oldest first; the
    rest of [buf] is spare capacity. *)

val create : unit -> t
(** An empty buffer with room for 16 ints. *)

val push : t -> int -> unit
