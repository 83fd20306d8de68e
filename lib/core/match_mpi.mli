(** MPI call matching (workflow step 3).

    Replays the MPI records of a trace to pair point-to-point operations and
    collective invocations:

    - {b Collectives} are matched per communicator in program order: the
      i-th collective call on a communicator across all its member ranks
      forms one event; a function-name disagreement or a missing rank is an
      unmatched-collective diagnostic (paper §V-D). Communicator membership
      is reconstructed from [MPI_Comm_dup]/[MPI_Comm_split] records (each
      carries the new communicator's globally unique id; split groups are
      ordered by (key, parent rank) like the real call). MPI-IO collective
      calls ([MPI_File_open/close/sync/set_view/…_all]) participate in the
      same per-communicator sequences.
    - {b Point-to-point}: sends are paired with receive *completions*
      (a blocking [MPI_Recv], or the [MPI_Wait*]/[MPI_Test*] record that
      completed an [MPI_Irecv], located through recorded request ids).
      Wildcard receives are resolved with the source/tag recovered from the
      recorded [MPI_Status]. Pairing is per channel
      (communicator, source, destination, tag), in program order on both
      sides (MPI's non-overtaking rule).

    Records whose call never returned (in-flight at an abort) match
    positionally but yield incomplete events, which contribute no
    happens-before edges.

    {b Observable orders.} Both lists of a {!result} are deterministic
    for a given store, but only partly sorted, and reports, the
    happens-before graph and the golden digests see them as they come:
    - [events]: the collectives first, communicator by communicator (the
      world communicator, then each one in the order its creation was
      matched), positions in order; then the point-to-point pairs,
      channel by channel, each channel's pairs in program order. The
      channel order is the iteration order of an OCaml [Hashtbl] keyed
      by (comm, src, dst, tag) that received one insertion per channel:
      channels with sends by their latest send, latest first, then the
      others by their latest receive, latest first.
    - [unmatched]: collective mismatches and orphans as matching meets
      them; orphans on communicators never created, in the iteration
      order of a [Hashtbl] keyed by (comm, rank) filled in op order;
      each channel's leftover sends or receives, in channel order;
      receives that never returned, whose source cannot be resolved, or
      whose request id was posted again while they were still posted
      (reported at the re-posting), in op order; last, posted receives
      that never completed, in the iteration order of the [Hashtbl]
      keyed by (rank, request id) that held them while they were posted.
    - [diagnostics]: in lenient mode, completion records that failed to
      parse (op order), then collective records and positions, then
      point-to-point records (op order).
    The order of [comm_ranks] is by communicator id. *)

type event =
  | P2p of { send : int; completion : int }
      (** op indices: the send record and the receive-completion record *)
  | Collective of { parts : (int * int option) list; completed : bool }
      (** per participating rank: the initiating record and, when the
          collective is non-blocking ([MPI_Ibarrier]/[MPI_Iallreduce]), the
          [MPI_Wait*]/[MPI_Test*] record that completed it (equal to the
          initiator for blocking collectives, [None] if the rank never
          completed the request). [completed] is false when any participant
          never returned. *)

type unmatched =
  | Mismatched_collective of {
      comm : int;
      position : int;
      present : (int * string) list;  (** (rank, func) at this position *)
      missing : int list;  (** member ranks with no call at this position *)
    }
  | Orphan_collective of { comm : int; rank : int; op : int }
      (** collective record on a communicator whose creation was never
          traced, or past a mismatch point *)
  | Unmatched_send of int
  | Unmatched_recv of int  (** posted receive that never completed or never
                               found a sender *)

val pp_unmatched : Estore.t -> Format.formatter -> unmatched -> unit
(** Render one unmatched diagnostic with rank/function context — the
    gray-row annotations of Fig. 4. *)

type result = {
  events : event list;
  unmatched : unmatched list;
  comm_ranks : (int * int array) list;  (** comm id -> member world ranks *)
  diagnostics : Recorder.Diagnostic.t list;
      (** corrupt MPI records absorbed by lenient matching; always empty in
          strict mode *)
}

type reason =
  | Missing_participant  (** a collective position with absent ranks *)
  | Function_mismatch
      (** the ranks of a collective position disagree on the function *)
  | Orphaned
      (** a collective past a mismatch point, or on a communicator whose
          creation was never traced *)
  | No_matching_recv  (** a send with no receive left on its channel *)
  | No_matching_send  (** a completed receive with no send on its channel *)
  | Never_completed  (** a posted receive that never returned *)
  | Inconsistent_order
      (** a matched event whose edges contradicted the rest of the graph
          and had to be dropped (partial graph construction) *)

val reason_to_string : reason -> string

type entry = {
  e_func : string;  (** MPI function name, or ["(no call)"] for a rank
                        absent from a collective position *)
  e_rank : int;  (** world rank of the call (or of the absent rank) *)
  e_comm : int option;  (** communicator id, when resolvable *)
  e_seq : int option;  (** per-rank sequence number, when known *)
  e_reason : reason;
  e_detail : string;  (** free-form context, e.g. the peer rank *)
  e_implicated : int list;
      (** world ranks whose cross-rank ordering this unmatched call
          weakens; [\[\]] means the affected set is unknowable (e.g. an
          unresolved wildcard source) and every rank must be assumed
          affected *)
}

val inventory : Estore.t -> result -> entry list
(** The structured unmatched-call inventory (paper §VI's "unmatched
    calls" accounting): one entry per unmatched call, in [unmatched]
    order. Never raises — fields that cannot be parsed from a (possibly
    corrupt) record are left unresolved. *)

val entries_of_event :
  Estore.t -> ?reason:reason -> ?detail:string -> event -> entry list
(** Inventory entries for a {e matched} event that was nevertheless given
    up — used by partial graph construction when an event's edges would
    create a cycle. Default reason {!Inconsistent_order}. *)

val entry_diagnostic : entry -> Recorder.Diagnostic.t
(** Render an entry as an {!Recorder.Diagnostic.Unmatched_call}
    diagnostic. *)

val run : ?mode:Recorder.Diagnostic.mode -> Estore.t -> result
(** Strict mode (default) propagates {!Estore.Malformed} (or the
    [Failure] of {!Estore.int_arg}) on corrupt MPI arguments, the first
    in the order completion records, collective records, collective
    positions, point-to-point records. Lenient mode never raises: a
    record whose fields cannot be parsed is dropped from matching with a
    diagnostic, and a collective position that references it is treated
    like a mismatch (subsequent calls on that communicator become
    {!Orphan_collective}). A failing completion record is reported twice,
    as a completion record and as a point-to-point record, and the
    request ids it listed before the bad field still complete. *)

val is_clean : result -> bool
(** No unmatched diagnostics. *)
