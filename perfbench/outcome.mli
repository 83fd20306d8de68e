(** How one benchmark request ended, and the failed share of a run. *)

type t =
  | Ok
  | Raised of string  (** an exception escaped the request *)
  | Out_of_budget  (** a step budget ran out (verify exit 6) *)
  | Timed_out
  | Refused  (** admission control turned the job away *)
  | Quarantined
  | Wrong_verdict of string  (** the verdict failed the benchmark's check *)

val failed : t -> bool

val of_response : Serve.Spool.response -> t
(** Classify a serve response by status and exit code; a [done]
    response is [Ok] here, its verdict is checked separately. *)

val describe : t -> string

val errors : t list -> string list
(** {!describe} of each failed outcome, in order. *)

type tally = { attempted : int; failed : int }

val tally : t list -> tally

val failed_share : tally -> float
(** [failed / attempted]; 0 for an empty run. *)
