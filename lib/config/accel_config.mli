(** Accelerator description — the "accelerator" half of the
    configuration file (paper Fig. 5 and Sec. III-B).

    Captures the I/O contract of the accelerator, not its internals:
    supported operation and tile dimensions, data type, DMA parameters,
    the micro-ISA ({!Opcode.map}), the valid dataflows
    ({!Opcode.flow}s), and which flow to use. *)

type dma_config = {
  dma_id : int;
  input_address : int;
  input_buffer_size : int;  (** bytes *)
  output_address : int;
  output_buffer_size : int;  (** bytes *)
}

type engine_kind =
  | Matmul_engine of Accel_matmul.version * int
      (** Table I engines: version and supported tile edge *)
  | Conv_engine  (** the Sec. IV-D Conv2D engine *)

type t = {
  accel_name : string;
  engine : engine_kind;
  op_kind : string;  (** linalg op implemented: ["matmul"] or ["conv_2d_nchw_fchw"] *)
  data_type : Ty.dtype;
  accel_dims : int list;
      (** per iteration-space dimension: the supported tile extent, or
          0 when the accelerator absorbs/ignores that dimension (the
          tiling pass then leaves it untiled subject to
          [buffer_capacity_elems]) *)
  flexible : bool;
      (** v4-style: tile extents may be any multiple of the accel_dims
          granularity that fits the buffers *)
  buffer_capacity_elems : int;  (** per-operand internal buffer, in elements *)
  frequency_mhz : float;
  ops_per_cycle : float;  (** Table I throughput *)
  dma : dma_config;
  opcode_map : Opcode.map;
  opcode_flows : (string * Opcode.flow) list;  (** named flows: Ns/As/Bs/Cs/... *)
  selected_flow : string;
  init_opcodes : string list;  (** opcode keys sent once per kernel *)
}

val n_args : t -> int
(** Number of [linalg.generic] operands of the supported op (3 for both
    matmul and conv). *)

val flow_exn : t -> string -> Opcode.flow
val with_flow : t -> string -> t
(** Select a different flow (validated). *)

val max_dma_buffer_bytes : int
(** The largest DMA region {!validate} accepts: 16 MiB, 256x the 0xFF00
    preset window. *)

val max_engine_size : int
(** The largest matmul engine edge a configuration may name: 64, whose
    v1-v3 buffer of 4096 elements equals v4's. *)

val engine_size : int Json.decoder
(** A matmul engine edge in [\[1, max_engine_size\]] ("SIZE: must be
    positive", "SIZE: exceeds the engine-size ceiling of 64"). *)

val validate : t -> (unit, string) result
(** Full consistency check: known op kind, dims arity, opcode map/flow
    validity, selected flow exists, init opcodes defined, buffer
    capacities consistent with the engine, each DMA region in
    [1, max_dma_buffer_bytes] ("dma.input_buffer_size: ..."). *)

val make_device : ?tracer:Trace.t -> t -> Accel_device.t
(** Instantiate the simulator model this config describes. *)

val attach : Soc.t -> t -> Dma_engine.t
(** Create the device and register a DMA engine under [dma.dma_id] with
    region capacities from the config. *)

val of_json_result : Json.t -> (t, string) result
(** Parse and {!validate} a configuration. Every malformed input — a
    missing or mistyped field, bad opcode syntax, an unknown engine or
    data type, a failed consistency check — yields [Error] with a
    field-qualified message ("accel_config.dma.id: ..."), never an
    exception. *)

val to_json : t -> Json.t
