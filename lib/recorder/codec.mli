(** Trace (de)serialization.

    Two wire formats share one reading API; every decoder sniffs the
    leading magic bytes and routes accordingly (docs/format.md §1.1):

    - {b text v1}: a compact dictionary-compressed line format — every
      distinct (layer, function) pair is written once in a header table
      and referenced by index from the record lines, mirroring Recorder's
      string-table compression (docs/format.md §5).
    - {b binary v2}: a length-prefixed varint format with a string pool,
      one contiguous record segment per rank, and a fixed-width footer
      index (per-rank offsets + counts + body CRC-32) so rank segments
      decode independently and the footer is located by seeking from EOF
      (docs/format.md §1–§4). Decoding is typically an order of magnitude
      faster than text v1.

    Both formats are self-describing and versioned; decoding a trace
    written by a different major version fails loudly.

    Decoding has two modes. {!Diagnostic.Strict} (the default) raises
    {!Malformed} on the first unreadable byte — all-or-nothing, for traces
    that are supposed to be pristine. {!Diagnostic.Lenient} never raises:
    unreadable records are skipped, clobbered string-table entries poison
    only the records that reference them, duplicate (rank, seq) slots keep
    their first occupant, and every loss is reported as a
    {!Diagnostic.t}. On binary input, lenient decoding additionally
    isolates faults per rank segment (corruption inside one segment costs
    at most that segment's tail) and falls back to a sequential salvage
    pass when the footer index itself is unreadable. *)

val magic : string
(** First line of every text trace file. *)

val magic_v2 : string
(** First 8 bytes of every binary trace (docs/format.md §3.1). *)

val binary_version : int
(** The binary format version this library reads and writes; stored in
    the byte after {!magic_v2} (docs/format.md §1.2). *)

val trailer_magic : string
(** Final 8 bytes of every binary trace; validated before trusting the
    footer locator (docs/format.md §3.5). *)

type format = Text | Binary

val format_name : format -> string
(** ["text"] or ["binary"]. *)

val detect : string -> format
(** Classify encoded bytes by leading magic. Anything that does not open
    with {!magic_v2} is treated as text (whose own magic check then
    produces a precise error for garbage input). *)

val detect_file : string -> format
(** {!detect} on the first 8 bytes of a file.
    @raise Sys_error if the file cannot be opened. *)

exception
  Malformed of { line : int; byte : int; record : int; reason : string }
(** Strict-mode decode failure. [line] is the 1-based line of the encoded
    trace at fault (0 when no line context applies, e.g. a direct
    {!unescape} call); [byte] is the offset of that line's first byte in
    the input and [record] the 1-based index of the offending record line
    — both [-1] when the failing position carries no such context (header
    errors, direct {!unescape} calls). *)

val encode : nranks:int -> Record.t list -> string
(** Serialize an execution's records as text v1 (any order; they are
    re-sorted by (rank, seq)). *)

val encode_binary : nranks:int -> Record.t list -> string
(** Serialize as binary v2 (docs/format.md §3): string pool, per-rank
    segments in (rank, seq) order, footer index with body CRC-32.
    @raise Invalid_argument if a record's rank falls outside
    [\[0, nranks)] — the binary layout stores records in per-rank
    segments, so every rank must have a segment. *)

val encode_format : format -> nranks:int -> Record.t list -> string
(** {!encode} or {!encode_binary} by [format]. *)

val decode : string -> int * Record.t list
(** [decode s] returns [(nranks, records)] with records sorted by
    (rank, seq). Auto-detects the format (§1.1). Strict:
    @raise Malformed on malformed or version-mismatched input. *)

type decoded = {
  nranks : int;
      (** from the header; in lenient mode inferred from the records when
          the header itself is unreadable *)
  records : Record.t list;  (** salvaged records, sorted by (rank, seq) *)
  diagnostics : Diagnostic.t list;
      (** what was lost, in trace order; empty in strict mode (strict
          raises instead) and on pristine lenient decodes *)
}

val decode_ext : ?mode:Diagnostic.mode -> string -> decoded
(** Mode-aware decode; auto-detects the format. With [~mode:Lenient]
    this never raises; with [~mode:Strict] (default) it behaves like
    {!decode}. On a well-formed trace both modes return identical
    records and no diagnostics, whichever format carried them. *)

val encode_trace : Trace.t -> string

val to_file : string -> Trace.t -> unit

val of_file : string -> int * Record.t list

val of_file_ext : ?mode:Diagnostic.mode -> string -> decoded
(** Like {!decode_ext}, but streaming: a thin wrapper over
    {!fold_records} that collects the records into a list. The file is
    read in fixed-size chunks and is never resident as one string. *)

type 'a folded = {
  f_nranks : int;  (** as {!decoded.nranks} *)
  f_value : 'a;  (** the fold's final accumulator *)
  f_records : int;  (** records salvaged and handed to [f] *)
  f_diagnostics : Diagnostic.t list;  (** as {!decoded.diagnostics} *)
}

val fold_records :
  ?mode:Diagnostic.mode ->
  ?chunk:int ->
  string ->
  init:'a ->
  f:('a -> Record.t -> 'a) ->
  'a folded
(** [fold_records path ~init ~f] decodes the trace file at [path]
    incrementally, calling [f] on each salvaged record in trace order.
    The format is auto-detected from the file's first bytes. Text input
    is pulled through a chunked line reader ([chunk] bytes at a time,
    default 64 KiB), so memory stays bounded by the widest line plus
    whatever the fold accumulates — this is how the columnar event store
    ingests traces without materializing a [Record.t] list. Binary input
    is read footer-first, then segment by segment ([chunk] is ignored):
    peak memory is the string pool plus the largest single rank segment,
    and the body CRC is folded over the blocks as they stream through
    (docs/format.md §4). Strict mode raises {!Malformed} (with byte
    offset, and record number on text input) exactly as {!decode} does;
    records emitted before the failure have already been folded. *)

val read_file : string -> string
(** Raw file contents (exposed so callers can inject faults into an
    encoded trace before decoding it). *)

val escape : string -> string
(** Percent-escaping of whitespace, [%] and newlines used for argument
    fields (exposed for tests). *)

val unescape : string -> string
(** @raise Malformed (with [line = 0]) on a truncated or non-hex escape. *)
