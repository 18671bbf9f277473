(** A DMA engine bridging the CPU and one accelerator over AXI-Stream
    (paper Fig. 1 and Sec. III-A).

    The engine owns an input and an output memory-mapped region
    (uncached, as the paper's [mmap]ed buffers). The host stages words
    into the input region, then [start_send]/[wait_send] stream a range
    to the device; [start_recv]/[wait_recv] collect device output into
    the output region.

    The input region is an unboxed {!Axi_word.stream}: data words are
    staged by the block of runs ({!stage_rows}), never as boxed
    {!Axi_word.t}s, and a send hands the device an {!Axi_word.window}
    over the staged range instead of a copy. Timing:

    - starting a transfer costs {!Cost_model.t.dma_program_cycles};
    - each waited transfer costs one word per
      [bus_words_per_cpu_cycle] plus [dma_wait_cycles];
    - device compute overlaps host execution: its completion time is
      tracked and [wait_recv] stalls the host clock until then.

    Accounting is one charge per DMA event, whatever the path
    (blocking, ping-pong or token): programming a transaction, the
    words sent, the words received, and the device's compute on
    delivered words each update their {!Perf_counters} fields and
    [sim.*] metric mirrors in exactly one place, so the paths' totals
    agree by construction. Only the timing around the charges differs
    between paths.

    Allocation: with tracing and metrics off, staging, a blocking or
    ping-pong transaction and a blocking receive allocate nothing. The
    engine's clocks and the device's cycles are flat float records, the
    device decodes through one window the engine moves per transaction,
    and the host marks go to the timeline through a flat
    {!Timeline.span}. What does allocate: a token transfer's flight and
    its timeline bookkeeping, the words a token receive drains (a fresh
    array, see {!wait_token}), the blocking receive region when its
    length changes, and the timeline's log when it grows. *)

type t

type token = int
(** Handle to a non-blocking transfer (see {!start_send_token}). *)

val create :
  cost:Cost_model.t ->
  counters:Perf_counters.t ->
  ?tracer:Trace.t ->
  ?timeline:Timeline.t ->
  ?dma_id:int ->
  device:Accel_device.t ->
  in_capacity_words:int ->
  out_capacity_words:int ->
  unit ->
  t
(** [tracer] (default {!Trace.noop}) receives [dma_send]/[dma_recv]
    spans for every transaction, an [accel_wait] span for host stalls on
    device completion, and accelerator busy intervals on
    {!Trace.accel_track}. [timeline] (default: a private one) carries
    the engine's two asynchronous agents — the DMA channel and the
    device — whose busy windows feed the makespan; [dma_id] names them
    and selects the per-channel trace tracks. *)

val device : t -> Accel_device.t
val in_capacity_words : t -> int

val stage : t -> offset:int -> Axi_word.t -> unit
(** Write one word into the input region at a word offset. No host cost
    is charged here — the runtime library accounts for the host-side
    copy according to the copy strategy in use. Raises [Failure]
    ["DMA input region overflow: offset N, capacity C"] on an offset
    outside the region. *)

val stage_inst : t -> offset:int -> int -> unit
(** Stage one instruction word. *)

val stage_rows :
  t ->
  offset:int ->
  Sim_memory.buffer ->
  int ->
  len:int ->
  count:int ->
  stride:int ->
  rows:int ->
  row_stride:int ->
  unit
(** [stage_rows t ~offset src pos ~len ~count ~stride ~rows ~row_stride]
    stages a block of [rows * count] runs of [len] words back to back
    as data words from [offset], the run of row [r] and [k] from the
    buffer's [data.(pos + r*row_stride + k*stride ..)]: one call for a
    block of {!Memref_view.fold_runs} (a contiguous run is [~count:1
    ~stride:0 ~rows:1 ~row_stride:0]). The region's capacity is checked
    once, then the buffer's range (see {!Axi_word.gather_data}), and the
    words are copied without per-word checks. On a failure nothing is
    staged: an overflow raises [Failure] with [N] in the message the
    first offset word-by-word staging would have rejected, and a source
    index outside the buffer {!Sim_memory.addr_of}'s
    [Invalid_argument]. *)

val staged_high_water : t -> int
(** Highest staged offset + 1 since the last send (the batch length). *)

val note_skipped : t -> words:int -> what:string -> unit
(** Mark a transfer the residency planner elided: records an instant on
    the DMA channel's trace track and a [sim.dma_words_skipped] metric.
    No words move and no performance counters are charged — a skipped
    transfer is genuinely absent from the timeline, this is only the
    explanation marker. *)

val start_send : t -> offset:int -> len_words:int -> unit
(** Program an input transfer of [len_words] starting at word [offset].
    The device consumes the words when the transfer completes (at
    [wait_send] time in wall-clock terms, but modelled here). *)

val wait_send : t -> unit
(** Block until the programmed transfer completes. *)

val send_staged : t -> unit
(** Convenience: [start_send ~offset:0 ~len_words:(staged_high_water)]
    followed by {!wait_send}, then reset the staging high-water mark.
    This is the "flush" the accel dialect's batching semantics use. *)

val send_staged_async : t -> unit
(** Double-buffered flush: program the transfer and return immediately —
    the stream drains in the background while the host prepares the
    next tile in the other half of the (ping-pong) input region. If a
    previous asynchronous transfer is still in flight, the host first
    stalls until it completes (there are only two buffer halves). *)

val start_recv : t -> len_words:int -> unit
(** Program a blocking receive of [len_words]. Raises [Failure] when a
    receive is already programmed, on a negative length, or when the
    length exceeds the output region. *)

val wait_recv : t -> float array
(** Stall until the device has produced the requested words, stream
    them into the output region, and return that region.

    Ownership: the array belongs to the engine, as the paper's one
    mmap'd output buffer does to the runtime. It holds exactly the
    requested words, is valid until this engine's next [wait_recv],
    and is then overwritten (or replaced, when the length changes).
    Copy out of it before the next receive; never keep it. Raises
    [Failure] when no receive is programmed. *)

val reset_device : t -> unit

(** {1 Non-blocking (token) transfers}

    The asynchronous halves of the blocking pairs above. The host pays
    only the programming cost at [start_*]; the transfer itself (and
    any accelerator compute it triggers) runs on the engine's
    {!Timeline} agents, concurrently with subsequent host work. A later
    {!wait_token} synchronises: it stalls the host clock up to the
    transfer's completion (full [dma_wait_cycles] poll) or, when the
    transfer already drained, pays only a cheap status-register check.
    DMA word and transaction counters are charged at [start_*] time, so
    totals match the blocking path exactly. *)

val start_send_token : t -> token
(** Flush everything staged since the last flush — the batch is the
    [\[lowest, highest\)] staged range, so ping/pong codegen can stage
    alternate halves — as one non-blocking transfer. Raises [Failure]
    if the batch overlaps a send still in flight (a double-buffering
    protocol violation). *)

val start_recv_token : t -> len_words:int -> token
(** Program a non-blocking receive of the oldest undrained batch; the
    transfer starts when that batch's compute completes. *)

val wait_token : t -> token -> float array
(** Synchronise the host with a transfer. Returns the received words
    for recv tokens ([[||]] for sends): a fresh array per receive,
    since several can be in flight, which the caller may keep. The engine keeps only
    outstanding transfers, so waiting forgets the token: a later wait
    on it raises [Failure] ("already waited"), as does a wait on a
    token the engine never issued ("unknown token"). *)

val outstanding_tokens : t -> token list
(** Tokens not yet waited (ascending) — the fuzz oracle's end-of-run
    leak check. *)
