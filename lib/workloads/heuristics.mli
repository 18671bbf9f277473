(** Tiling/dataflow selection heuristics for runtime-configurable
    accelerators (paper Sec. IV-C, Fig. 14).

    - [As-squareTile] / [Bs-squareTile] / [Cs-squareTile]: fix the flow
      and pick the largest square tile (a multiple of the engine
      granularity that divides every dimension and fits the buffers),
      minimising the total element-transfer count under that flow.
    - [Best]: search every flow the engine supports crossed with all
      feasible (possibly non-square) tile shapes, minimising a
      cost-model estimate of driver cycles (transfer volume, DMA
      transaction overheads, copy costs and accelerator compute). *)

type choice = {
  flow : string;
  tm : int;
  tn : int;
  tk : int;
  predicted_cycles : float;
  predicted_transfer_elems : float;
}

val transfer_elems :
  flow:string -> m:int -> n:int -> k:int -> tm:int -> tn:int -> tk:int -> float
(** Total f32 elements moved host<->accelerator for a full matmul under
    the flow's reuse structure (sends + receives). *)

val estimate_cycles :
  Accel_config.t ->
  cost:Cost_model.t ->
  flow:string ->
  m:int ->
  n:int ->
  k:int ->
  tm:int ->
  tn:int ->
  tk:int ->
  float
(** Analytic driver-cycle estimate from the cost model: per-opcode DMA
    transactions, streaming words, specialised copy costs, loop
    overheads and (overlapped) accelerator compute. *)

val conv_cycles_per_mac : float
(** Calibrated service-time proxy for the Conv2D engine: host driver
    cycles per MAC under the Os flow with specialised copies (16.0).
    The Os flow re-streams one patch word per MAC, and a staged word
    costs ~14-16 host cycles on the default cost model, so transfers —
    not arithmetic — set the rate. Pinned by the
    "conv-proxy-calibration" regression test (the measured pipeline on
    a row-sampled ResNet-18 layer must stay within a factor of two of
    this constant, and the constant itself is asserted exactly), so
    graph-level SJF and residency predictions cannot silently drift. *)

val estimate_conv_cycles : macs:int -> float
(** [conv_cycles_per_mac *. macs] — the conv analogue of
    {!estimate_cycles}, used by the serving oracle's SJF ranking and
    the graph scheduler's predictions. *)

val square_tile :
  Accel_config.t -> flow:string -> m:int -> n:int -> k:int -> choice option
(** [None] when no feasible square tile exists. *)

val best : ?cost:Cost_model.t -> Accel_config.t -> m:int -> n:int -> k:int -> choice option
(** The [Best] heuristic. *)

val candidate_tiles : Accel_config.t -> m:int -> n:int -> k:int -> (int * int * int) list
(** All feasible (tm, tn, tk) for the engine on this problem. *)

val choose : ?cost:Cost_model.t -> Accel_config.t -> m:int -> n:int -> k:int -> choice option
(** Today's default selection, the baseline the autotuner must never
    lose to: for flexible (v4-style) engines this is {!best}; for
    fixed-size engines it is the engine's own square tile under the
    configuration's [selected_flow]. [None] when no feasible tiling
    exists (the op stays on the CPU path). Any returned choice divides
    every dimension and fits the per-operand buffers. *)

val options_of_choice : Accel_config.t -> choice -> Axi4mlir.codegen_options
(** The codegen options that compile a choice: its flow, plus its tile
    shape when the engine is [flexible] (fixed-geometry engines always
    tile by their own size, so they get [tiles = None]). *)

val best_options :
  Accel_config.t -> m:int -> n:int -> k:int -> Axi4mlir.codegen_options
(** {!options_of_choice} of the {!best} choice, or
    {!Axi4mlir.default_codegen} when no feasible tiling exists. *)
