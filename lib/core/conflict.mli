(** Conflict detection (workflow step 2, Def. 4).

    Two data operations conflict iff they are issued by different ranks,
    their byte ranges on the same file overlap, and at least one is a
    write. Detection is the interval sweep of §IV-B: per file, intervals
    sorted by start offset; for each interval, later-starting intervals are
    scanned until one starts past its end.

    The output is organised as the paper's conflict groups [(X, ζ)]: one
    group per conflicting operation [X], mapping each peer rank to [X]'s
    conflicting operations on that rank in program order — the shape the
    verifier's pruning rules (Fig. 3) operate on. *)

type group = {
  x : int;  (** op index of the group's anchor operation *)
  peers : (int * int array) list;
      (** (rank, conflicting op indices in program order), ascending rank *)
}

val detect : Estore.t -> group list
(** Groups ordered by anchor op index. Every unordered conflicting pair
    appears in exactly two groups (once anchored at each end). *)

val group_pairs : group -> int
(** Number of (X, Y) pairs in the group. *)

val total_pairs : group list -> int
(** Total ordered pairs across groups (twice the unordered count). *)

val distinct_pairs : group list -> int
(** Number of distinct unordered conflicting pairs. *)
