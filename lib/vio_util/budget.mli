(** Deterministic fuel accounting for per-stage verification budgets.

    A budget is a fixed number of abstract {e steps} a pipeline run may
    spend; each stage charges its natural unit (records decoded, conflict
    pairs, graph edges, engine nodes, properly-synchronized checks).
    Because steps count work items rather than wall time, an overrun is a
    pure function of the input — the same trace and limit always exhaust
    at the same point, which makes budget-kill behaviour reproducible in
    tests and across machines (unlike a wall-clock timeout).

    The supervisor ({!Verifyio.Batch.run_isolated}) turns an {!Exhausted}
    escape into a per-job [Timed_out] status instead of letting it abort
    the whole campaign.

    A budget may additionally carry a {e wall-clock deadline}
    ([timeout_ms]): every {!spend} also compares elapsed real time
    against it and escapes with {!Deadline_exceeded} past the limit. The
    deadline shares the step budget's cooperative check points (stage
    boundaries, per-verify-check), so it cuts off a slow job at the next
    charge rather than preemptively — the service watchdog's defense
    against wall-clock hogs, with the explicit caveat that, unlike step
    overruns, a deadline overrun depends on machine load and is
    therefore worth retrying. *)

type t

exception
  Exhausted of {
    stage : string;  (** the stage that ran out, e.g. ["verify"] *)
    limit : int;
    used : int;  (** steps spent at the moment of the overrun *)
  }

exception
  Deadline_exceeded of {
    stage : string;  (** the stage charging when the clock ran out *)
    timeout_ms : int;
    elapsed_ms : int;  (** wall time since the budget was created *)
  }

val create : ?timeout_ms:int -> int -> t
(** A fresh budget of the given step limit, optionally also bounded to
    [timeout_ms] of wall time from this moment.
    @raise Invalid_argument when the limit or [timeout_ms] is not
    positive. *)

val timer : timeout_ms:int -> unit -> t
(** A wall-clock-only budget: the step limit is [max_int], so only
    {!Deadline_exceeded} can fire.
    @raise Invalid_argument when [timeout_ms] is not positive. *)

val limit : t -> int

val used : t -> int
(** Steps spent so far (may exceed {!limit} by the final charge). *)

val remaining : t -> int
(** [max 0 (limit - used)]. *)

val exhausted : t -> bool

val spend : t -> stage:string -> int -> unit
(** Charge [n] steps against the budget on behalf of [stage]. Raises
    {!Exhausted} the moment the total crosses the limit, then
    {!Deadline_exceeded} when a wall-clock deadline is set and has
    passed.
    @raise Invalid_argument when [n] is negative. *)

val describe : exn -> string option
(** One-line rendering of an {!Exhausted} or {!Deadline_exceeded}
    exception; [None] for any other exception. *)
