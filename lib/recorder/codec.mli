(** Trace (de)serialization.

    Two wire formats share one reading API (docs/format.md §1.1):

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

    There are two ways in, {!decode_ext} for bytes in memory and
    {!fold_records} for a file. They differ only in where the bytes come
    from: both sniff the leading magic and run the same decoder for each
    format, so a trace, damaged or not, gets the same records,
    diagnostics and errors from either.

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

type format = Text | Binary

val format_name : format -> string
(** ["text"] or ["binary"]. *)

val detect : string -> format
(** Classify encoded bytes by leading magic. Anything that does not open
    with {!magic_v2} is treated as text (whose own magic check then
    produces a precise error for garbage input). *)

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
(** [decode_ext s] decodes the encoded trace [s], either format
    (auto-detected), into a list. With [~mode:Lenient] this never
    raises; with [~mode:Strict] (default) it raises {!Malformed} on
    malformed or version-mismatched input and never returns partial
    data. On a well-formed trace both modes return identical records and
    no diagnostics, whichever format carried them. *)

type 'a folded = {
  f_nranks : int;  (** as {!decoded.nranks} *)
  f_value : 'a;  (** the fold's final accumulator *)
  f_records : int;  (** records salvaged and handed to [f] *)
  f_diagnostics : Diagnostic.t list;  (** as {!decoded.diagnostics} *)
}

val fold_records :
  ?mode:Diagnostic.mode ->
  string ->
  init:'a ->
  f:('a -> Record.t -> 'a) ->
  'a folded
(** [fold_records path ~init ~f] decodes the trace file at [path]
    incrementally, calling [f] on each salvaged record in trace order,
    with the decoders {!decode_ext} runs. The file is never resident as
    one string: text input is split into lines 64 KiB at a time, so
    memory stays bounded by the widest line plus whatever the fold
    accumulates — this is how the columnar event store ingests traces
    without materializing a [Record.t] list. Binary input is read
    footer-first, then the pool and one rank segment at a time: peak
    memory is the pool plus the largest single segment, and the body CRC
    is folded over the segments as they pass and checked after the
    records (docs/format.md §4). Strict mode raises {!Malformed} (with
    byte offset, and record number on text input) as {!decode_ext} does;
    records emitted before the failure have already been folded.

    The file is read through the [codec.read] failpoint site, as
    {!read_file} reads it: [fail]/[delay] act before the file is opened,
    [short:N] reads at most its first [N] bytes, and [bitflip] flips one
    deterministic bit of what is read (docs/robustness.md).
    @raise Sys_error if the file cannot be opened. *)

val read_file : string -> string
(** Raw file contents (exposed so callers can inject faults into an
    encoded trace before decoding it), read through the same faulted
    input as {!fold_records}: for one [codec.read] hit number,
    [decode_ext (read_file path)] and [fold_records path] see the same
    bytes and give the same answer. *)

val escape : string -> string
(** Percent-escaping of whitespace, [%] and newlines used for argument
    fields (exposed for tests). *)

val unescape : string -> string
(** @raise Malformed (with [line = 0]) on a truncated or non-hex escape. *)
