(** Typed supervision of spawned domains.

    The batch engine ([Verifyio.Batch]) is the one parallel scheme: it
    runs its worker bodies on spawned domains, and nothing else spawns
    any. Before this
    module, an exception escaping a worker propagated raw through
    [Domain.join] and aborted the whole process with a backtrace — the
    one thing a verifier must never do. {!run_workers} is the drop-in
    replacement for the spawn/join idiom: every worker body runs under a
    handler, and whatever it raises comes back as a typed {!failure}
    value instead of a crash. Callers then apply their documented
    degradation — retry the work sequentially, quarantine the job — and
    announce it through {!note_fallback}. *)

type failure = {
  f_tag : string;  (** subsystem tag, e.g. ["batch.worker"] *)
  f_index : int;  (** worker index (0 = the calling domain) *)
  f_exn : string;  (** [Printexc.to_string] of what escaped *)
}

val to_string : failure -> string
(** One-line rendering: [tag: worker N died: exn]. *)

val run_workers : tag:string -> domains:int -> (int -> unit) -> failure list
(** Run the body on [max 1 domains] workers — index 0 on the calling
    domain, the rest on spawned domains — and join them all. Exceptions
    raised by any body are captured (never re-raised) and returned in
    worker-index order; an empty list means every worker finished. *)

val note_fallback : tag:string -> failure list -> unit
(** Announce a degradation decision: print a one-line diagnostic to
    stderr (never a backtrace). No-op on [[]]. *)
