(** [BENCHMARK.json]: the benchmark's declaration of its command,
    workloads and metrics, with the limits the format imposes. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** share of the baseline median a metric may worsen by; end-to-end
          metrics only *)
}

type workload = { w_name : string; why : string }

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

val of_json : Vio_util.Json.t -> (t, string) result
(** Parse and validate: exactly the six keys, names and units within
    their character sets and lengths, names unique, 2-8 workloads,
    bounds in (0, 0.25], and a [setup_s] metric in seconds where lower
    is better. *)

val to_json : t -> Vio_util.Json.t

val load : string -> (t, string) result
(** Read and {!of_json} a file. *)
