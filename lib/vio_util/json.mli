(** A minimal JSON document builder and parser for machine-readable
    artifacts (benchmark reports, the service layer's job files, journal
    lines and cache entries).

    Output is deterministic: object fields render in the order given,
    floats in ["%.6g"] (non-finite floats become [null], keeping every
    emitted document valid JSON), and every control character
    (U+0000–U+001F) in a string is escaped — so journal and cache entries
    carrying odd path bytes survive the emit → parse round trip
    (qcheck-property-tested in [test/test_vio_util.ml]). Bytes [>= 0x80]
    pass through verbatim in both directions; the codec is
    encoding-agnostic.

    The parser exists for the service daemon, which must re-read its own
    write-ahead journal and cache entries after a crash. It accepts
    standard JSON (with [\uXXXX] escapes decoded to UTF-8, surrogate
    pairs included); it is not lenient — a torn journal line is a parse
    error the replay logic handles explicitly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string  (** escaped on output; any OCaml string is accepted *)
  | List of t list
  | Obj of (string * t) list  (** fields render in list order *)

val to_string : ?indent:int -> t -> string
(** Render a document. [indent] (default 2) is the number of spaces per
    nesting level; [~indent:0] renders compactly on one line. The result
    always ends without a trailing newline. *)

val escape : string -> string
(** The JSON string-literal escaping applied to {!Str} payloads and object
    keys (quotes, backslashes, control characters), without the
    surrounding quotes. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error). Numbers without [.], [e] or [E] become {!Int};
    all others {!Float}. [Error] carries a one-line message with the
    0-based byte offset of the failure. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] for
    a missing key or a non-object. *)

val to_int : t -> int option
(** {!Int} payload; [None] otherwise. *)

val to_str : t -> string option
(** {!Str} payload; [None] otherwise. *)

val to_list : t -> t list option
(** {!List} payload; [None] otherwise. *)

val to_bool : t -> bool option
(** {!Bool} payload; [None] otherwise. *)
