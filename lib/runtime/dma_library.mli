(** The custom AXI DMA runtime library (paper Sec. III-A, Fig. 9).

    This is the layer the generated host code (and the hand-written
    baselines) call into:

    - {!init}/{!free}: one-time DMA engine setup ([mmap]ing the
      memory-mapped input/output regions);
    - {!stage_literal}/{!copy_to_dma_region_with}: stage opcode words and
      memref tiles into the input region at a word offset, returning
      the next free offset (the offset chaining of Fig. 6b that batches
      an opcode's actions into a single transfer);
    - {!flush_send}: [dma_start_send] + [dma_wait_send_completion] over
      everything staged;
    - {!recv_into}: the blocking receive — flush, [dma_start_recv] +
      [dma_wait_recv] on the engine, then {!copy_from_data_with} the
      accelerator's output back into a memref, optionally accumulating.

    Two host-side copy implementations are provided, selected by
    {!strategy}: the {e generic} rank-N element-wise copy (loads the
    memref struct's size/stride fields per element, one scalar cache
    access per element) and the {e specialised} copy of Sec. IV-B,
    which memcpys each maximal contiguous run with vectorised accesses
    (one cache reference per 16-byte chunk). The specialised copy
    requires a unit innermost stride and degrades gracefully — runs of
    length 1 (e.g. 1x1 convolution patches) pay the per-run setup for
    every element, reproducing the paper's fHW==1 slowdown.

    Cost: a copy charges per element, in the element-wise model's
    order, but not through a call per charge: it walks the view a block
    of runs at a time ({!Memref_view.fold_runs}; a [1 x C x 3 x 3]
    patch is one block, not [C] rows), writes each charge of {!Soc}
    out, and looks the cache up once per line rather than per element
    ({!Cache.line_shift}). Per block it computes its cost constants
    once, loads each counter field it charges into a local, and writes
    the locals back once when the block's charges end; each counter
    field so receives the float additions a call per charge would make,
    in the same order, and stays bit-identical. A copy out first stages
    the block with one {!Dma_engine.stage_rows}, which checks the
    region's capacity and the buffer's range once for the whole block:
    a block that would overflow the region or reach outside its buffer
    raises before any of its rows is charged or staged. A copy in
    checks each element's index; one that raises there leaves the
    counters as they stood when that block started.

    Allocation: with tracing and metrics off, staging, a copy in either
    direction with any strategy, a blocking flush and a blocking
    receive allocate nothing: each copy walks the view with
    {!Memref_view.fold_runs} and a closed row function. A non-blocking
    transfer allocates its {!token}, the engine's flight, and on
    receive the drained words. *)

type strategy =
  | Generic  (** always element-wise through the memref descriptor *)
  | Specialized  (** memcpy contiguous runs when the innermost stride is 1 *)
  | Bare
      (** a hand-written strided C loop over a bare array: no memref
          metadata loads and no per-run memcpy setup. This is what the
          manual baselines fall back to when runs are too short to
          vectorise (e.g. 1x1-convolution patches); generated code
          cannot use it — the compiler only has the generic and
          specialised library entry points. *)

type t

val strategy_to_string : strategy -> string

val init : ?double_buffer:bool -> Soc.t -> dma_id:int -> strategy:strategy -> t
(** Look up the DMA engine registered under [dma_id] and charge the
    one-time initialisation cost. With [double_buffer], flushes use the
    engine's asynchronous (ping-pong) sends, overlapping streaming with
    the host's preparation of the next tile (the paper's Sec. V
    double-buffering attribute). *)

val init_cycles : float
(** The one-time driver bring-up cost charged by {!init} (exposed so
    multi-kernel experiments can amortise it correctly). *)

val manual_strategy : Memref_view.t -> strategy
(** What a hand-written driver does for this view: [Specialized] when
    the contiguous runs are at least a vector chunk long, [Bare]
    otherwise. *)

val free : t -> unit
val soc : t -> Soc.t
val strategy : t -> strategy
val engine : t -> Dma_engine.t

val stage_literal : t -> int -> offset:int -> int
(** Stage one instruction word; returns [offset + 1]. *)

val can_specialize : Memref_view.t -> bool
(** Whether the view's innermost stride is 1 (the specialisation
    precondition the Copy_specialization pass checks). *)

val copy_to_dma_region_with :
  t -> strategy -> Memref_view.t -> offset:int -> int
(** Stage a tile's elements (row-major) with the given strategy;
    returns the next offset. A tile that does not fit the input region
    fails with {!Dma_engine.stage_rows}'s overflow message and offset,
    and one that reaches outside its buffer with
    {!Sim_memory.addr_of}'s; either way the failing block is neither
    charged nor staged, while the blocks before it are. *)

val copy_from_data_with :
  t -> strategy -> Memref_view.t -> accumulate:bool -> float array -> unit
(** Copy already-received words into a view with an explicit strategy
    ([+=] when [accumulate]). *)

val flush_send : t -> unit
(** Transmit everything staged since the last flush (no-op when nothing
    is staged). *)

val recv_into : t -> strategy -> Memref_view.t -> accumulate:bool -> unit
(** The one blocking receive of the manual drivers and the
    interpreter's [accel.recv]: {!flush_send} (the staged request
    opcode), then [Dma_engine.start_recv] of the view's element count,
    [Dma_engine.wait_recv], and {!copy_from_data_with} into the view.
    The runtime-call level issues the same four steps as separate
    calls. *)

val skip_resident : t -> words:int -> what:string -> unit
(** Account for a transfer the residency planner elided because the
    device region already holds the tensor: charges only the host-side
    residency check (two ALU ops and a branch), bumps the
    [runtime.dma_words_skipped] metric and leaves a marker on the DMA
    trace track via {!Dma_engine.note_skipped}. No DMA words move. *)

(** {1 Non-blocking transfers}

    The library-level faces of [accel.start_send] / [accel.start_recv]
    / [accel.wait]: the host pays only a call and the DMA programming
    cost at start time; the transfer (and any accelerator compute it
    triggers) proceeds on the SoC {!Timeline}'s agents. *)

type token

val start_send : t -> token
(** Flush everything staged since the last flush as one background
    transfer. *)

val start_recv : t -> strategy:strategy -> Memref_view.t -> accumulate:bool -> token
(** Program a background receive of [num_elements view] words. The
    host-side copy into [view] happens at {!wait} time, with
    [strategy]. *)

val wait : t -> token -> unit
(** Synchronise with the transfer; for recv tokens, also copy the
    received words into the destination view. *)
