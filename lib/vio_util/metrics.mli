(** Process-wide performance telemetry: named counters and wall-time
    observations, aggregated across OCaml domains.

    The verification pipeline threads coarse-grained measurements through
    this registry — per-stage wall times, pruning-rule hits,
    happens-before query totals, memo-cache hits — so that callers such
    as the torture campaign can read them from one {!snapshot} without
    any module keeping private bookkeeping.

    Counter bumps are lock-free (a per-name [Atomic.t] cell behind an
    immutable name map swapped in by compare-and-set), so concurrent Batch
    domains never serialize on a counter. Timer observations still take a
    mutex — they happen once per pipeline stage, where contention is
    structurally impossible. Even so, record at {e stage} granularity,
    never inside per-query hot loops: hot-path statistics are accumulated
    locally (e.g. {!val:Verifyio.Reach.query_count}) and flushed here once
    at the end of a stage. All operations are safe to call concurrently
    from multiple domains. *)

type timer = {
  count : int;  (** number of observations *)
  total : float;  (** sum of observed durations, seconds *)
  min : float;  (** smallest observation; [0.] when [count = 0] *)
  max : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  timers : (string * timer) list;  (** sorted by name *)
}

val incr : ?n:int -> string -> unit
(** Add [n] (default 1) to the named counter, creating it at zero first. *)

val observe : string -> float -> unit
(** Record one duration (seconds) under the named timer. *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk, {!observe} its wall-clock duration, return its result.
    The observation is recorded even when the thunk raises. *)

val reset : unit -> unit
(** Drop every counter and timer — the start of a measurement window. *)

val snapshot : unit -> snapshot
(** A consistent copy of the current registry contents. *)

val find_counter : snapshot -> string -> int
(** The counter's value, or [0] when absent. *)

val find_timer : snapshot -> string -> timer option
