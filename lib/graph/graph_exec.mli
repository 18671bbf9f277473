(** Whole-model execution on one simulated SoC.

    Two modes over the same operand data (fills are label-seeded, so
    runs are reproducible and comparable):

    - [residency:false] — the per-kernel baseline: image-major,
      every node resets the engine and pays every transfer, exactly as
      if each layer were invoked standalone.
    - [residency:true] — plans with {!Graph_residency.schedule} and
      executes node-major, eliding the planned transfers through the
      device's residency regions. Elided transfers go through
      {!Dma_library.skip_resident}, so the DMA word counters genuinely
      shrink rather than being discounted after the fact.

    The residency run must be bit-identical to the baseline on every
    graph output — the engine computes resident patches in the exact
    element order of streamed ones — and the fuzz oracle and
    [bench/exp_graph] both enforce it. *)

type node_stat = {
  ns_node : int;
  ns_name : string;
  ns_op : string;
  ns_cycles : float;  (** host cycles attributed to this node (summed
                          over the batch) *)
  ns_dma_words : float;  (** DMA words sent + received by this node *)
  ns_skipped_words : int;  (** words elided by residency decisions *)
}

type result = {
  rs_graph : Graph_ir.t;
  rs_plan : Graph_residency.plan;
  rs_batch : int;
  rs_counters : Perf_counters.t;
  rs_node_stats : node_stat array;
  rs_skipped_words : int;
  rs_outputs : (int * float array array) list;
      (** per graph output: tensor id and one row-major array per
          image *)
}

val run : ?batch:int -> residency:bool -> Graph_ir.t -> result
(** Execute the graph (default batch 1). Raises [Failure] on invalid
    graphs, mixed-engine graphs, or a plan/executor desync, and
    {!Match_annotate.Rejected} for a matmul node the engine cannot
    take. *)

val result_dma_words : result -> float
(** Total DMA words moved (sent + received). *)

val outputs_equal : result -> result -> bool
(** Bit-exact comparison of the two runs' graph outputs. *)
