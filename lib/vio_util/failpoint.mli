(** Deterministic, seeded fault injection behind named sites.

    Every subsystem that touches the outside world — codec reads, domain
    workers, fsync/rename/append in the service layer — declares a
    {e site}: a stable string name at the exact point where reality can
    fail. A site does nothing until a {e policy} is installed for it
    (via {!configure}, the [--failpoints] CLI flag or the
    [VERIFYIO_FAILPOINTS] environment variable); the whole fabric is
    gated behind one atomic flag, so a build with no policies installed
    pays a single load per site and never allocates — the golden-digest
    gate holds byte-for-byte with the fabric disabled.

    Policies are deterministic functions of the site's hit counter and
    an explicit seed, never of wall clock or global randomness, so a
    failing torture scenario replays from its [site=policy] spec alone.
    Hit counters are atomic: domains racing through a site each observe
    a distinct hit number, so [fail@n] fires exactly once per process no
    matter which worker draws it.

    The spec grammar accepted by {!configure}:
    {v
    SPEC   := entry (';' entry)*
    entry  := SITE '=' POLICY
    POLICY := 'off'
            | 'fail' ['@' N]          fail the Nth hit (default 1)
            | 'prob:' P [':' SEED]    fail each hit with probability P
            | 'delay:' MS             sleep MS milliseconds on every hit
            | 'short:' N              truncate I/O lengths to N bytes
            | 'bitflip' [':' SEED]    flip one deterministic bit per buffer
    v}
    Site names are validated against {!known_sites}; a typo is a
    configuration error, not a silently-dead failpoint. *)

type policy =
  | Off
  | Fail of int  (** raise {!Injected} on exactly the nth hit (1-based) *)
  | Fail_prob of float * int  (** probability, seed: raise per-hit *)
  | Delay of int  (** sleep this many ms on every hit *)
  | Short_io of int  (** clamp lengths passed to {!adjust_len} *)
  | Bitflip of int  (** seed: flip one bit per buffer, chosen by {!bitflip} *)

exception Injected of { site : string; hit : int }
(** The injected fault. Subsystems treat it exactly like the real fault
    the site models (a failed fsync, a dead worker); anything reaching
    the CLI top level maps to the documented exit 2 one-liner. *)

val known_sites : (string * string) list
(** The site registry: [(name, what failing here models)]. The
    authoritative list is documented in docs/robustness.md. *)

val enabled : unit -> bool
(** Whether any policy is installed. The fast path every site checks. *)

val set : site:string -> policy -> unit
(** Install one policy (resetting the site's hit counter). Unknown
    sites raise [Invalid_argument] — use {!configure} for parsed
    input. Not safe to call while other domains are mid-[hit]. *)

val configure : string -> (unit, string) result
(** Replace the whole configuration from a spec string (grammar above).
    [Error] describes the first unparsable entry or unknown site. *)

val clear : unit -> unit
(** Remove every policy and reset all counters; {!enabled} turns false. *)

val hit : string -> unit
(** Consult the site: count the hit, then sleep ([Delay]), raise
    ([Fail]/[Fail_prob]), or do nothing. No-op when disabled. *)

val adjust_len : string -> int -> int
(** The length an I/O at this site should actually transfer: clamped by
    a [Short_io] policy, unchanged otherwise. Counts as a hit only for
    the clamping policy. *)

val bitflip : string -> len:int -> (int * int) option
(** Under a [Bitflip] policy, the bit to flip in a [len]-byte buffer:
    [Some (byte, bit)] with [byte < len] and [bit < 8], chosen
    deterministically from the seed and the hit number. Counts as a hit;
    [None] for an empty buffer and under every other policy. *)

val hit_count : string -> int
(** How many times the site has been consulted since its policy was
    installed. Zero for unknown or unconfigured sites. *)
