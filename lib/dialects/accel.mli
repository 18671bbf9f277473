(** The [accel] dialect (paper Sec. III-C, Fig. 9): operations that
    abstract host–accelerator transactions — DMA initialisation, staged
    sends into the DMA memory-mapped region, and receives.

    Offsets are [i32] values measured in 32-bit words within the DMA
    region. Send-like ops {e stage} their payload at the given offset
    and return the next free offset; the op that carries
    [flush = true] additionally programs the DMA engine to transmit
    everything staged so far (one [dma_start_send]/[dma_wait] pair),
    which is how the paper batches an opcode's actions into a single
    transfer. [accel.recv] first waits for the accelerator's output and
    then copies it back into a memref, accumulating when
    [mode = "accumulate"]. *)

val dma_init :
  Builder.t ->
  dma_id:int ->
  input_address:int ->
  input_buffer_size:int ->
  output_address:int ->
  output_buffer_size:int ->
  unit
(** [accel.dma_init] with five constant operands (Fig. 6a's
    [dma_init_config] values). Emits the needed [arith.constant]s. *)

val dma_free : Builder.t -> unit

val send_literal : ?flush:bool -> Builder.t -> literal:Ir.value -> offset:Ir.value -> Ir.value
(** [accel.sendLiteral(%lit, %offset) : i32, i32 -> i32]. *)

val send : ?flush:bool -> Builder.t -> src:Ir.value -> offset:Ir.value -> Ir.value
(** [accel.send(%tile, %offset) : memref, i32 -> i32]. Copies the tile
    into the DMA region. Defaults to [flush:true] — a data send ends an
    opcode's staging batch unless stated otherwise. *)

val send_dim :
  ?flush:bool ->
  ?static_extent:int ->
  Builder.t ->
  src:Ir.value ->
  dim:int ->
  offset:Ir.value ->
  Ir.value
(** [accel.sendDim]: stage the extent of dimension [dim] of [src].
    [static_extent] records the compiler-resolved tile extent when it
    differs from the full memref extent (e.g. runtime-configurable tile
    sizes sent at kernel initialisation); execution prefers it over the
    operand's type. *)

val send_dim_extent : Ir.op -> int
(** The extent an [accel.sendDim] transmits: [static_extent] when
    present, otherwise the operand memref's extent at [dim]. *)

val send_idx : ?flush:bool -> Builder.t -> idx:Ir.value -> offset:Ir.value -> Ir.value
(** [accel.sendIdx]: stage the value of a loop index. *)

type recv_mode = Store | Accumulate

val recv : Builder.t -> mode:recv_mode -> dst:Ir.value -> offset:Ir.value -> Ir.value
(** [accel.recv {mode}(%tile, %offset) : memref, i32 -> i32]. *)

(** {1 Non-blocking transfers}

    The asynchronous halves the double-buffering pass emits:
    [start_send] flushes everything staged since the last flush as one
    background transfer (so staging ops before it carry
    [flush = false]); [start_recv] programs a background receive into a
    memref. Both return an [!accel.token]; [wait] consumes it. The
    verifier requires every token to be waited exactly once. *)

val start_send : Builder.t -> Ir.value
(** [%t = accel.start_send() : () -> !accel.token]. *)

val start_recv : Builder.t -> mode:recv_mode -> dst:Ir.value -> Ir.value
(** [%t = accel.start_recv {mode}(%tile) : memref -> !accel.token]. *)

val wait : Builder.t -> token:Ir.value -> unit
(** [accel.wait(%t)]: synchronise the host with the transfer; for
    recv tokens this is when the data lands in the destination. *)

val recv_mode_of : Ir.op -> recv_mode
val is_flush : Ir.op -> bool
val is_accel : Ir.op -> bool

val dma_init_name : string
val recv_name : string

(** {1 Verification} The per-op checks {!Verifier} reaches by op name. *)

val verify_dma_init : Ir.op -> (unit, string) result

val verify_offset_chain : data:bool -> Ir.op -> (unit, string) result
(** [send], [sendDim] and [recv] ([data]) stage a memref; [sendLiteral]
    and [sendIdx] an [i32] or [index]. *)

val verify_start_send : Ir.op -> (unit, string) result
val verify_start_recv : Ir.op -> (unit, string) result
val verify_wait : Ir.op -> (unit, string) result
