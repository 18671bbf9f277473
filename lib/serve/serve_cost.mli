(** The serving simulator's service-time oracle.

    Maps a model name to the simulated cycles one invocation costs, by
    running every layer of the model through the {e real}
    compile+simulate pipeline (the same path the bench experiments
    measure) — matmul layers on the flexible v4_16 engine under the
    [Best] heuristic's flow/tile choice, conv layers on the Conv2D
    engine under the [Os] flow with copy specialisation. Results are
    memoised per (engine, layer, batch), so a serving run pays for
    each distinct kernel once no matter how many requests invoke it.

    The matmul engine is an argument of each query ([?engine], default
    {!default_matmul_accel}), not of the oracle: one oracle serves
    every instance of a heterogeneous platform, and a platform search
    shares one oracle across all its candidates.

    Batching semantics ([batch > 1]): the batch's requests share the
    model, so a batched invocation runs each layer with a batched
    leading dimension — matmul [m -> batch * m] (the stationary [B]
    operand, the weights, is shared across the batch), conv
    [n -> batch] images. This is the mechanism by which the [Batch]
    policy reduces total work: DMA bring-up is paid once per batched
    kernel and stationary-operand transfers are amortised.

    Whole-model names expand through {!Tune_workload}: ["resnet18"] is
    the row-sampled convolution proxy list (each layer's first output
    rows at full width) and
    ["tinybert"] the distinct padded MatMul shape classes — one kernel
    per shape class, the Fig. 17 class-sampling, so a "model" here is
    the per-class representative work, not the full multiplied layer
    count. Any single-kernel spec ([matmul:M,N,K], [conv:...]) is also
    a valid model. *)

type t

val models_of_specs :
  ?rows:int ->
  ?seq:int ->
  string list ->
  ((string * Tune_workload.named list) list, string) result
(** Resolve CLI workload specs to named models with their layer lists.
    [rows] is the ResNet-18 row-sampling depth (default 2), [seq] the
    TinyBERT sequence length (default 128). The result preserves order
    and repeats (a repeated spec weights the request mix). [Error]
    names the offending spec. *)

val default_matmul_accel : unit -> Accel_config.t
(** The engine a query costs with when it gets no [engine]: the
    flexible v4_16 preset — the configuration every pre-platform
    serving run used. *)

val create : ?graphs:(string * Graph_ir.t) list -> (string * Tune_workload.named list) list -> t
(** An oracle over the given models, with an empty memo table. The
    conv engine is not configurable: every instance carries the same
    Sec. IV-D sidecar.

    [graphs] adds {e whole-model} entries: a request for such a model
    costs a full {!Graph_exec} forward pass (every layer, dataflow
    edges and all, with residency planning) rather than a
    per-shape-class layer sum. Graph names shadow nothing: they are looked up before
    the layer-list models. Graph costs do not depend on the matmul
    engine, so their memo keys carry none. *)

val models : t -> string list
(** The model names, in [create] order (repeats preserved; graph
    models last). *)

val memo_stats : t -> int * int
(** [(hits, misses)] of the memo table across {!service} and
    {!predict} calls — also exported as the [serve.oracle_hits] /
    [serve.oracle_misses] metrics counters. Memo keys carry the
    engine-config fingerprint ({!Benchdiff.config_hash}, computed once
    per distinct engine) and the workload's canonical dimension list,
    so results can never leak across configurations or shape
    aliases. *)

val service : ?engine:Accel_config.t -> t -> string -> batch:int -> float
(** Measured cycles for one invocation of the model serving [batch]
    coalesced requests (see batching semantics above). Memoised.
    Raises [Failure] for an unknown model, a non-positive batch, or a
    workload the pipeline rejects (the message names the layer). *)

val service_parts : ?engine:Accel_config.t -> t -> string -> batch:int -> float * float
(** [(cycles, dma_words)] for one invocation: the same measured cycles
    as {!service}, plus the total DMA words the run moved
    (send + receive perf counters). The words let a platform model
    split a service time into its compute and transfer shares — the
    share a wider AXI beat or a contended DMA channel scales.
    Memoised under the same key as {!service}. *)

val predict : ?engine:Accel_config.t -> t -> string -> float
(** Cheap analytic estimate of [service ?engine ~batch:1], for the SJF
    policy: {!Heuristics.best}'s [predicted_cycles] on [engine] for
    matmul layers, a MAC-count proxy for conv layers. Never runs the
    pipeline; memoised per (engine, model). *)
