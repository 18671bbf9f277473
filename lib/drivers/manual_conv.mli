(** Hand-written layer-specific Conv2D driver baseline (paper
    Sec. IV-D): weights stationary per output channel, bare-array
    copies, one DMA transfer per opcode. *)

val run :
  Soc.t ->
  Accel_config.t ->
  ?flow:string ->
  ?stride:int ->
  input:Memref_view.t ->
  filter:Memref_view.t ->
  output:Memref_view.t ->
  unit ->
  unit
(** [O += conv2d(I, W)] (NCHW / FCHW, valid padding, spatial stride s) on the
    conv engine. Flows: ["Ws"] (per-pixel receive, default), ["Rs"]
    (one receive per output row — the natural hand-optimised batching)
    or ["Os"] (whole output slice received once per channel). *)

(** {1 Protocol helpers}

    The manual drivers' host protocol, shared with the matmul driver
    and the whole-model executor ([Graph_exec]). Each opcode is one DMA
    transfer; tile copies use {!Dma_library.manual_strategy}. A tile
    transfer first charges [alu] host ops for its address arithmetic. *)

val send_inst : Dma_library.t -> int -> unit
(** Stage an opcode word alone, then flush. *)

val send_two : Dma_library.t -> int -> int -> unit
(** Stage an opcode and its operand word, then flush. *)

val send_tile_with : Dma_library.t -> alu:int -> int -> Memref_view.t -> unit
(** Stage an opcode and a tile, then flush. *)

val recv_tile_with :
  Dma_library.t -> alu:int -> int -> accumulate:bool -> Memref_view.t -> unit
(** Stage the request opcode, then drain the engine into a view ([+=]
    when [accumulate]). *)

val send_tile : Dma_library.t -> int -> Memref_view.t -> unit
val recv_tile : Dma_library.t -> accumulate:bool -> Memref_view.t -> unit
(** The conv driver's forms: [alu] is 6 (the matmul driver's is 4), and
    a receive requests {!Isa.cv_drain}. *)

val loop : Soc.t -> int -> (int -> unit) -> unit
(** [for i = 0 to count - 1], charging one loop iteration each. *)
