(** Human-readable reporting: call chains for each race (§IV-D) and the
    summary tables of the evaluation. *)

val pp_race :
  Estore.t -> Format.formatter -> Verify.race -> unit
(** Renders both operations with their full interception call chains —
    the diagnostic that distinguishes application-level from library-level
    bugs. *)

val race_report : ?limit:int -> Pipeline.outcome -> string
(** Multi-line report of the outcome's races (default [limit] 10) and
    unmatched MPI diagnostics. Races whose verdict rests on a degraded
    trace region are marked [\[under degradation\]]. *)

val degradation_report : ?limit:int -> Pipeline.outcome -> string
(** What a lenient run had to give up: per-class loss counters followed by
    the first [limit] (default 10) diagnostics. Empty string when nothing
    was degraded. *)

val unmatched_table : Pipeline.outcome -> string
(** The structured unmatched-call inventory of a partial-matching run as a
    table (call, rank, communicator, sequence, reason, detail) — the
    paper's unmatched-run accounting, one row per call instead of one gray
    row per test. Ends with the "properly synchronized modulo unmatched
    calls" verdict line when the run found no races. Empty string when the
    inventory is empty. *)

val summary_line : name:string -> Pipeline.outcome -> string
(** One line: test name, model, conflicts, races, unmatched. *)

val table_i : unit -> string
(** Regenerates the paper's Table I (S and MSC per builtin model). *)

val table_models : unit -> string
(** The full registry as a Table-I-style table with two extra columns:
    each model's aliases and its lattice edges — the other registered
    models it {!Model.implies} (every strictly weaker model, plus
    equivalents). *)

val table_ii : unit -> string
(** Regenerates Table II (Recorder vs Recorder+ API coverage). *)

val timing_row : Pipeline.outcome -> (string * float) list
(** (stage, seconds) pairs in Table IV's order. *)

type race_group = {
  rg_chain_x : string;  (** rendered call chain of the first operation *)
  rg_chain_y : string;
  rg_count : int;  (** races with this chain pair *)
  rg_sample : Verify.race;  (** a representative race *)
}

val group_races : Pipeline.outcome -> race_group list
(** Deduplicate races by the call-chain pair of their two operations —
    the paper's §VII observation that the same code location races many
    times and should be reported once. Sorted by descending count. *)

val grouped_report : Pipeline.outcome -> string
(** Race report aggregated by {!group_races}. *)
