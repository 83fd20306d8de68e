(** Order statistics for the benchmark's timings. *)

val percentile : float -> float list -> float
(** [percentile p xs]: linear interpolation between closest ranks
    (position [p/100 * (n-1)] in the sorted samples). Raises
    [Invalid_argument] on an empty list. *)

val min_beyond : int
(** Samples a reported percentile must have beyond it (10). *)

val percentile_checked : float -> float list -> float option
(** {!percentile}, or [None] when fewer than {!min_beyond} samples lie
    beyond it: p50 needs 20 samples, p90 needs 100. *)

val median : float list -> float

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile as Python's
    [statistics.quantiles(xs, n=4)] computes them (exclusive method).
    Needs at least two samples. *)

val spread : float list -> float
(** Interquartile range over the median (by {!quartiles}). *)
