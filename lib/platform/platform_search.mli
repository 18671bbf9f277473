(** Architecture search: explore the {e platform} half of the co-design
    space under an area budget.

    Where {!Tuner} fixes the SoC and searches host-code knobs (engine,
    flow, tiles, transfer options), this module fixes the per-kernel
    host code (the [Best] heuristic, via {!Serve_cost}) and searches
    the SoC: which Table I engines the instance slots carry, how many
    DMA channels the fabric ships, how wide the AXI beat is. It reuses
    the tuner's machinery — candidates live in an abstract index space
    searched by {!Tune_strategy} (grid or the cost-model-seeded greedy
    climb), infeasible candidates are pruned {e statically} (over the
    resource budget — the analogue of {!Tune_prune}), and
    {!Tune_strategy} evaluates each candidate at most once.

    Candidates are evaluated at the {e serving} level, not per-kernel:
    a platform's worth is what a whole request stream sees — slow slots
    drag the work-conserving dispatcher's tail latency in ways no
    isolated kernel time shows — so the oracle is a {!Platform_serve}
    run over a fixed request stream, scored as throughput and p99.

    The search reports a Pareto front over (throughput per resource
    unit, p99 latency): maximise the first, minimise the second. *)

type space = {
  ss_engines : string list;
      (** the engine pool instance slots draw from (Table I matmul
          preset names) *)
  ss_max_instances : int;  (** largest instance count considered *)
  ss_channels : int list;  (** DMA channel counts considered *)
  ss_beats : int list;  (** AXI beat widths considered *)
}

val default_space : space
(** Engines [v2_8; v3_16; v4_16], up to 3 instances, 1–3 channels,
    every {!Platform_ir.beat_widths} — 171 candidates before budget
    pruning. *)

val quick_space : space
(** Engines [v3_16; v4_16], up to 2 instances, 1–2 channels, beats
    [4; 8] — the @platform-quick CI space (20 candidates). *)

val enumerate : space -> (Platform_ir.t list, string) result
(** Every platform in the space: one per (engine multiset of size
    1..max, channel count, beat width). Deterministic order. [Error]
    when the space itself is malformed (unknown engine name, empty
    pool, no channels/beats, non-positive max) — field-qualified, like
    {!Platform_ir.validate}. *)

type point = {
  pt_platform : Platform_ir.t;
  pt_resource : float;  (** {!Platform_cost.resource_total} units *)
  pt_throughput_rps : float;
  pt_p99_cycles : float;
  pt_per_resource : float;  (** throughput / resource — the objective *)
}

type outcome = {
  sr_space : int;  (** candidates enumerated *)
  sr_over_budget : int;  (** statically pruned by the area budget *)
  sr_evaluated : int;  (** serving runs actually measured *)
  sr_best : point option;  (** highest throughput-per-resource found *)
  sr_front : point list;
      (** the Pareto front over (per-resource, p99), sorted by
          per-resource descending *)
  sr_baseline : point option;
      (** the homogeneous default, measured through the same oracle *)
}

val default_measure :
  ?freq_mhz:float ->
  ?queue_cap:int ->
  ?batch_max:int ->
  policy:Serve_policy.t ->
  models:(string * Tune_workload.named list) list ->
  requests:Serve_request.t list ->
  unit ->
  Platform_ir.t ->
  (float * float) option
(** The serving oracle: build the platform's {!Platform_serve} fleet,
    serve [requests] under [policy], return
    [(throughput_rps, p99_cycles)] — [None] when the run fails or
    nothing completes. The closure shares one {!Serve_cost} oracle,
    whose memo is keyed by engine configuration, {e across every
    candidate it ever measures}, so a search's simulation cost scales
    with distinct engines, not candidates. [freq_mhz] defaults to the
    cost model's CPU clock; [batch_max] to 1. *)

val search :
  ?strategy:Tune_strategy.t ->
  ?area_budget:float ->
  ?baseline:Platform_ir.t ->
  measure:(Platform_ir.t -> (float * float) option) ->
  space ->
  (outcome, string) result
(** Run the search. [strategy] defaults to [Grid]; [area_budget]
    (resource units) statically prunes candidates whose
    {!Platform_cost.resource_total} exceeds it and must be positive;
    [baseline] (default [Platform_ir.homogeneous ~accels:2]) is
    measured through the same [measure] for the comparison row —
    {e not} subject to the budget. Every returned point (best, front,
    baseline excepted) respects the budget, and no front point is
    dominated on both axes — QCheck properties in the test suite.
    [measure] runs once per evaluated candidate plus once for the
    baseline. *)

val pick_winner : outcome -> point option
(** The deployment recommendation: the highest-per-resource front
    point that ties-or-beats the baseline's p99 {e and} strictly beats
    its throughput-per-resource. Without a baseline, [sr_best]. [None]
    when nothing qualifies. *)

val render : outcome -> string
(** The Pareto-front table (platform, resource units, req/s, req/s
    per unit, p99) plus baseline and pruning counts, for
    [axi4mlir_tune --platform-search]. *)
