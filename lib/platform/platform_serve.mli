(** Instantiating the serving simulator from a platform description.

    This is the bridge the architecture search evaluates through: a
    {!Platform_ir.t} becomes a heterogeneous fleet — each instance's
    engine configuration, costed through one shared {!Serve_cost}
    oracle whose memo is keyed by engine (so measurement cost scales
    with distinct engines, not slots or platforms), wired into
    {!Serve_sim.run} through its [service_at]/[predict_at] hooks.

    {2 The platform transfer model}

    The oracle measures each kernel on the paper's baseline bus (one
    4-byte word per beat, a channel per accelerator). A platform
    changes only the {e transfer} share of that measurement:

    [service = compute + dma * (4 / beat_bytes) * max(1, instances / channels)]

    where [dma] is the DMA share estimated from the run's perf
    counters ([dma_words * Cost_model.cpu_cycles_per_word], clamped to
    the measured total) and [compute] is the remainder. A wider beat
    moves more bytes per cycle; more instances than channels serialise
    on the shared DMA engines. When the scale is exactly 1 — at least
    one channel per instance and the 4-byte baseline beat — the
    measured cycles are returned {e without any arithmetic}, so a
    homogeneous platform run is bit-identical to the equivalent
    [--accels K] run (gated by [bench/exp_platform]). *)

type t

val create : platform:Platform_ir.t -> Serve_cost.t -> t
(** Build the fleet: resolve each instance's engine configuration
    once, and cost every instance through [oracle] (which carries the
    models and graphs served). The platform must be valid (raises
    [Failure] with the {!Platform_ir.validate} message otherwise — CLI
    callers validate first via {!Platform_ir.load_file}). Passing one
    oracle to several [create] calls shares its memoised measurements
    between fleets — how {!Platform_search} keeps a whole search's
    simulation cost proportional to distinct engines. *)

val platform : t -> Platform_ir.t

val engines : t -> string list
(** {!Platform_ir.instance_names} — what {!Serve_report.summarize}
    takes as [engines]. *)

val dma_scale : Platform_ir.t -> float
(** The transfer multiplier [(4 / beat_bytes) * max(1, instances /
    channels)]. Exactly [1.0] (computed without FP division) when
    [channels >= instances] and [beat_bytes = 4]. *)

val service_at : t -> accel:int -> string -> batch:int -> float
(** Instance [accel]'s service time for one dispatch: the oracle's
    measurement on the instance's engine, with the platform transfer
    model applied. Raises [Failure] on an out-of-range index or any
    {!Serve_cost.service} failure. *)

val predict_at : t -> accel:int -> string -> float
(** Instance [accel]'s SJF ranking key ({!Serve_cost.predict} on its
    engine — a v3_16 slot ranks with v3_16 predictions). *)

val run :
  ?telemetry:Serve_telemetry.t ->
  ?queue_cap:int ->
  ?batch_max:int ->
  policy:Serve_policy.t ->
  t ->
  Serve_request.t list ->
  (Serve_sim.outcome, string) result
(** Serve a stream on the platform: {!Serve_sim.run} with
    [sp_accels = n_instances], the platform hooks, and instance 0's
    costs as the uniform fallback (never consulted — the hooks are
    always given). [batch_max] defaults to 1. *)
