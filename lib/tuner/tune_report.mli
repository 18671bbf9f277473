(** The reproducible tuning report: per workload, the space that was
    explored, what pruning removed and why, how many candidates were
    actually simulated (vs served from the cache), the winning
    configuration and the heuristic baseline it is compared against.

    JSON schema ["axi4mlir-tune-report-v1"]; the same document renders
    as a plain-text table for the terminal. *)

val schema : string

type best = {
  bs_candidate : Tune_space.candidate;
  bs_cycles : float;
  bs_from_baseline : bool;
      (** the heuristic baseline won (or tied) — the tuner's
          never-worse guarantee kicking in *)
}

type result = {
  r_label : string;
  r_workload : Tune_workload.t;
  r_space : int;  (** enumerated candidates before pruning *)
  r_pruned : (string * int) list;  (** {!Tune_prune.reason_label} -> count *)
  r_evaluated : int;  (** fresh pipeline evaluations this run *)
  r_cache_hits : int;
  r_rejected : int;  (** candidates the pipeline refused *)
  r_best : best option;  (** [None]: nothing ran (all pruned/rejected) *)
  r_baseline : (string * float) option;
      (** heuristic default: description and its measured cycles *)
}

type t = {
  rp_strategy : Tune_strategy.t;
  rp_results : result list;
}

val to_json : t -> Json.t
val render : t -> string
val write_file : string -> t -> unit
