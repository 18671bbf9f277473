(** The autotuner driver: enumerate -> prune -> search -> compare
    against the heuristic default.

    For each workload the tuner:

    + enumerates the candidate cross product of the search space;
    + statically prunes invalid, infeasible and Pareto-dominated
      candidates ({!Tune_prune}) — no simulation spent;
    + runs the chosen {!Tune_strategy} over the survivors, where each
      evaluation first consults the persistent {!Tune_cache} (a warm
      cache means zero pipeline runs) and otherwise pays for one
      compile+simulate ({!Tune_eval});
    + measures the {!Heuristics.choose} default for the workload and
      takes the better of the two — the returned configuration is
      {e never} slower than the heuristic fallback, by construction.

    Observability: the ["tuner_candidates"], ["tuner_pruned"] (labelled
    by reason), ["tuner_evaluations"], ["tuner_cache_hits"] and
    ["tuner_rejected"] counters land in {!Metrics.default}; an
    [Applied] remark names each workload's winning configuration and an
    [Analysis] remark the baseline comparison; with a tracer, tuning
    progress shows as a dedicated "autotuner" track in the Chrome
    trace ({!Trace.tuner_track}). *)

type options = {
  strategy : Tune_strategy.t;
  space : Tune_space.t;
  cache : Tune_cache.t option;  (** consulted and filled when present *)
  host : Host_config.t option;  (** simulated host; default PYNQ-Z2 *)
  tracer : Trace.t option;  (** tuning-progress tracer (tuner track) *)
  cost : Cost_model.t;  (** prediction model for pruning/seeding *)
  seed_from_bottleneck : bool;
      (** when true, the baseline candidate is measured first and the
          perf doctor's binding-resource diagnosis of that run nudges
          the greedy strategy's predicted ranking (DMA-bound: favour
          double buffering; host-bound: favour the largest engines).
          Only a {e fresh} baseline evaluation seeds — a warm cache
          carries no diagnosis, so warm-cache runs are unaffected and
          still execute zero simulations. Default [false]. *)
}

val default_options : options
(** Grid over {!Tune_space.default}, no cache, default host and cost
    model, no tracer, no bottleneck seeding. *)

val tune : options -> Tune_workload.named list -> Tune_report.t
(** Tune a list of workloads (a whole model, fig-13-style sweep, ...)
    into one report. *)
