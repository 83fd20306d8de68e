(** Stable, run-adaptive merge sort on [int] arrays, with no comparison
    closure: keys are compared as ints in the sort's own loops.

    The sort first cuts its input into runs: each maximal non-decreasing
    stretch, extended by insertion sort to at least 32 elements. It then
    merges adjacent runs pairwise until one run is left. Input made of
    [k] presorted runs takes about [log2 k] merge passes; a columnar
    store whose rank chains are each in timestamp order is ordered in
    [log2 nranks] passes. Scratch space is one array of the input's
    length. *)

val sort : int array -> unit
(** Sort ascending, in place. *)

val order : int array -> int array
(** [order keys] lists the indices [0 .. length keys - 1] by
    non-decreasing key, equal keys in index order: the array
    [Array.stable_sort (fun i j -> compare keys.(i) keys.(j))] leaves
    when applied to the identity permutation. [keys] is not modified. *)
