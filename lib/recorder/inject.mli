(** Seeded, deterministic trace fault injection.

    Operates on the {e encoded} trace text (the exact byte stream
    {!Codec.decode_ext} consumes), so every fault models something that can
    really happen to a trace on disk: a lost record line, a stream cut
    mid-write, a scribbled field, a doubled flush, an epilogue that never
    fired, a clobbered string-table entry.

    Injection is a pure function of [(plan, seed, trace)] — the same
    triple always yields the same faulted trace and the same event list,
    so a failing run is a reproducible experiment id. *)

type kind =
  | Drop_record  (** delete a whole record line *)
  | Truncate_tail  (** cut bytes off the end of the trace *)
  | Corrupt_arg
      (** overwrite an argument/return field with an invalid escape *)
  | Duplicate_record  (** emit a record line twice *)
  | Strip_epilogue
      (** rewrite a record as in-flight (tend = -1, ret = [<in-flight>]) *)
  | Clobber_string_table  (** destroy a function-table entry *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val all_kinds : kind list

type spec = { kind : kind; rate : float }
(** One fault kind with its per-site probability in [\[0, 1\]]. [rate]
    applies per record line (per table entry for
    {!Clobber_string_table}); for {!Truncate_tail} it bounds the fraction
    of the record body that may be cut. *)

type plan = spec list

val plan_of_string : string -> (plan, string) result
(** Parse a CLI spec like ["drop:0.01,truncate:0.3"]. The empty string is
    the empty plan. *)

val plan_to_string : plan -> string

type event = { e_kind : kind; e_line : int; e_detail : string }
(** One injected fault: what, where (1-based line of the {e original}
    encoded trace; 0 for tail truncation), and a human-readable detail. *)

val pp_event : Format.formatter -> event -> unit

val apply : plan -> seed:int -> string -> string * event list
(** [apply plan ~seed encoded] returns the faulted trace and the faults
    actually injected, in trace order. An empty plan (or all-zero rates)
    returns the input byte-identical with no events. Headers and the
    string table are never touched except by {!Clobber_string_table}, so
    every injected fault is independently detectable by a lenient
    decode. *)
