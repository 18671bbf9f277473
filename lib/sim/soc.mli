(** The simulated SoC (paper Fig. 1): host CPU with a cache hierarchy,
    main memory, and DMA engines attached to accelerator devices.

    Host drivers — hand-written baselines, the DMA runtime library, and
    the IR interpreter — execute against this module: every memory
    access, arithmetic operation and branch they model is charged here,
    accumulating the {!Perf_counters.t} that the benchmarks report. *)

type t = {
  memory : Sim_memory.t;
  cache : Cache.t;
  counters : Perf_counters.t;
  cost : Cost_model.t;
  access_cycles : float array;
      (** the cycle cost of an access that hit at 1-based level [h] is
          entry [h - 1]; the last entry is DRAM. Computed once by
          {!create} from [cost] and the cache depth; callers must not
          change it. *)
  tracer : Trace.t;  (** disabled unless {!enable_tracing} was called *)
  timeline : Timeline.t;
      (** per-agent clocks for asynchronous DMA/accelerator activity;
          empty (and cost-free) in blocking runs *)
  mutable engines : (int * Dma_engine.t) list;
  mutable host_serial : float option;
      (** the serial counter as it stood when {!absorb_makespan} first
          ran — the host's own busy time, before the makespan
          overwrote it. [None] until then. *)
}

val create :
  ?cost:Cost_model.t ->
  ?cache_geometries:Cache.geometry list ->
  ?tracer:Trace.t ->
  unit ->
  t
(** Defaults: {!Cost_model.default}, the Cortex-A9 L1+L2 geometry, and a
    fresh disabled tracer. *)

val enable_tracing : t -> Trace.t
(** Switch the SoC's tracer to a recording sink whose clock is the
    simulated cycle counter and whose span snapshots are
    {!Perf_counters.fields}, then return it. Instrumentation in the DMA
    engines, runtime library and interpreter starts recording
    immediately; counters are never affected either way. *)

val attach_engine :
  t ->
  dma_id:int ->
  device:Accel_device.t ->
  in_capacity_words:int ->
  out_capacity_words:int ->
  Dma_engine.t
(** Create and register a DMA engine. Replaces any engine with the same
    id. *)

val engine : t -> int -> Dma_engine.t
(** Raises [Failure] for an unknown id. *)

val reset_run_state : t -> unit
(** Reset counters, caches, recorded trace events, the async timeline
    and device state between measured runs (memory contents are
    preserved). *)

val task_clock_cycles : t -> float
(** The makespan: the serial host counter or the latest asynchronous
    agent completion, whichever is later. Equals [counters.cycles]
    exactly when no async transfer was issued. *)

val absorb_makespan : t -> unit
(** Set [counters.cycles] to {!task_clock_cycles} — called once at the
    end of a measured run so reported task-clocks are makespans. A
    no-op for blocking runs (empty timeline). The first call also
    captures [host_serial]. *)

val critpath_input : t -> Critpath.input
(** Snapshot the run's event DAG — timeline agent events, host marks,
    total DMA wire time and device busy time — in the neutral form
    {!Critpath.analyze} and {!Doctor.diagnose} consume. Call after the
    measured run (post-{!absorb_makespan}); the snapshot is read-only
    and does not disturb counters or timeline. *)

val engine_track_names : t -> (int * string) list
(** Chrome-trace [tid -> name] labels for each attached engine's DMA
    channel and accelerator tracks (for {!Chrome_trace.write_file}). *)

(** {1 Host event costing}

    Every entry point takes and returns ints: with separately compiled
    modules a [float] crossing a module boundary is boxed, so callers
    charge here and read or write [buf.Sim_memory.data] themselves.

    The runtime copies ([Dma_library]) and the CPU reference kernels
    ([Cpu_reference]) do not call these in their hot loops: a call into
    this module per charge was most of what they cost. They write the
    same charges out, element by element in the element-wise model's
    order, into locals loaded from {!t.counters} when a row (a copy's
    row of runs, a kernel's reduction into one output element) starts
    and written back when it ends, so each counter field receives
    exactly the float additions these functions would make and stays
    bit-identical. A memcpy-style copy charges one cache reference per
    {!Cost_model.t.vector_chunk_bytes} chunk. An access known to be to
    the L1 line the previous access touched (a copy's next element in
    the same line, a kernel's store after its load) is charged as the L1
    hit it is without a cache lookup ({!Cache.line_shift}). *)

val charge_access : t -> int -> unit
(** One scalar f32 access at a byte address: one cache reference plus
    the hit/miss cycles. An L1 lookup is always paid, an L2 lookup only
    on an L1 miss in a hierarchy that has an L2, and DRAM only when the
    last level misses. Allocates nothing. *)

val charge_memref_access : t -> Sim_memory.buffer -> int -> unit
(** A scalar element access through a memref descriptor, as the
    straightforward linalg-to-loops lowering performs it: two
    descriptor-field loads (assumed L1-resident), one address ALU op,
    and the cached data access at the element index. Loads and stores
    cost the same. Used by both the IR interpreter and the native CPU
    reference so the two charge identically. *)

val charge_l1_hits : t -> int -> unit
(** [n] cache accesses that are assumed to hit L1 (e.g. the memref
    size/stride struct loads of the generic element-wise copy): counted
    as cache references and one cycle each, without touching cache
    state. *)

val alu : t -> int -> unit
(** [n] integer ALU operations. *)

val fpu : t -> int -> unit
val branch : t -> int -> unit
(** [n] executed branches. *)

val loop_iteration : t -> unit
(** Per-iteration loop overhead: compare+increment plus one counted
    branch. *)

val call_overhead : t -> unit
(** Function call + return (charged by the runtime library entry
    points). *)

val uncached_store_words : t -> int -> unit
(** Host stores into a DMA region ([n] 32-bit words). *)

val now_ms : t -> float
(** Elapsed simulated time in milliseconds. *)
