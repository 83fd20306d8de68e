(** The workloads' inputs: trace files written by running programs
    through the traced simulator stack. Generation runs in its own
    process, so the process that verifies the files never holds the
    generated record lists. *)

type workload = Corpus | Wide | Ingest | Serve

val workload_name : workload -> string

val workload_of_name : string -> workload option

val all_workloads : workload list

type item = {
  file : string;  (** path of the binary v2 trace *)
  program : string;  (** registry name, or ["heat_checkpoint"] *)
  scale : int;
  nranks : int;
  records : int;
}

val heat_steps : smoke:bool -> int

val generate : workload -> seed:int -> smoke:bool -> dir:string -> unit
(** Write the workload's trace files and a manifest into [dir]. *)

val load : string -> item list
(** The manifest [generate] wrote, in generation order. *)

val expected : item -> Workloads.Harness.t option
(** The registry program an item came from (None for the heat trace). *)
