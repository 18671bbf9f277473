(** AXI4MLIR, end to end: the convenience facade a user starts from.

    Typical use (see [examples/quickstart.ml]):

    {[
      let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Cs" () in
      let bench = Axi4mlir.create accel in
      let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:64 ~n:64 ~k:64 in
      let ir = Axi4mlir.compile_matmul bench ~m:64 ~n:64 ~k:64 () in
      Axi4mlir.run_matmul bench ir ~a ~b ~c;
      Printf.printf "%.3f ms\n" (Soc.now_ms bench.soc)
    ]}

    Everything here is a thin composition of the underlying libraries
    (configs, IR builders, pass pipelines, interpreter, SoC models),
    all of which remain directly usable. *)

type t = {
  soc : Soc.t;
  host : Host_config.t;
  accel : Accel_config.t;
  engine : Dma_engine.t;
}

val create : ?host:Host_config.t -> Accel_config.t -> t
(** Build a fresh simulated SoC (default host: {!Host_config.pynq_z2}),
    instantiate the configured accelerator and attach its DMA engine. *)

(** {1 Input construction} *)

val alloc_view : t -> label:string -> int list -> Memref_view.t
(** Allocate a buffer of the given shape in simulated memory, filled
    with deterministic pseudo-random data. *)

val alloc_zero : t -> label:string -> int list -> Memref_view.t
(** As {!alloc_view} but zero-initialised, for callers (the fuzzer)
    that supply their own operand data via {!Memref_view.fill_from}. *)

val alloc_matmul_operands :
  t -> m:int -> n:int -> k:int -> Memref_view.t * Memref_view.t * Memref_view.t
(** A(m,k), B(k,n) random; C(m,n) zero. *)

val alloc_conv_operands :
  ?stride:int ->
  t ->
  n:int ->
  ic:int ->
  ih:int ->
  iw:int ->
  oc:int ->
  fh:int ->
  fw:int ->
  Memref_view.t * Memref_view.t * Memref_view.t
(** I, W random; O zero (valid padding, the given stride). *)

(** {1 IR construction} *)

val build_matmul_module : m:int -> n:int -> k:int -> unit -> Ir.op
(** A module with one function [@matmul_call(%A, %B, %C)] containing a
    [linalg.generic] matmul. *)

val build_conv_module :
  ?stride:int ->
  n:int ->
  ic:int ->
  ih:int ->
  iw:int ->
  oc:int ->
  fh:int ->
  fw:int ->
  unit ->
  Ir.op
(** A module with one function [@conv_call(%I, %W, %O)] containing a
    [linalg.conv_2d_nchw_fchw] (valid padding, the given stride). *)

(** {1 Compilation} *)

type codegen_options = Codegen_options.t = {
  flow : string option;  (** override the config's selected flow *)
  tiles : int list option;  (** flexible-engine tile override *)
  cpu_tiling : bool;
  copy_specialization : bool;
  coalesce_transfers : bool;  (** Sec. V: merge send chains into one DMA transaction *)
  double_buffer : bool;  (** Sec. V: ping-pong asynchronous input transfers *)
  to_runtime_calls : bool;
}
(** The pipeline's compile knobs, {!Codegen_options.t} under its facade
    name. *)

val default_codegen : codegen_options
(** {!Codegen_options.default}. *)

val compile :
  t ->
  ?options:codegen_options ->
  ?stats:Pass.pass_stat list ref ->
  ?tracer:Trace.t ->
  Ir.op ->
  Ir.op
(** Run the AXI4MLIR pipeline on a module. Raises
    {!Match_annotate.Rejected} if an op the accelerator matches cannot
    be offloaded, and {!Pass.Pass_failure} if a pass breaks
    verification. [stats] collects per-pass timing/op-count records;
    [tracer] receives compile-track events (see {!Pass.run_pipeline}). *)

val compile_matmul : t -> ?options:codegen_options -> m:int -> n:int -> k:int -> unit -> Ir.op

val compile_cpu :
  ?stats:Pass.pass_stat list ref -> ?tracer:Trace.t -> Ir.op -> Ir.op
(** The mlir_CPU lowering (linalg -> loops). *)

(** {1 Observability} *)

val enable_tracing : t -> Trace.t
(** Switch the SoC's tracer on (it is created disabled) and return it.
    From then on DMA transfers, runtime-library copies, accelerator
    busy intervals and interpreter function spans are recorded against
    the simulated cycle clock. Note {!measure} clears recorded events
    when it resets the run state. *)

val tracer : t -> Trace.t
(** The SoC's tracer (enabled or not). *)

(** {1 Execution} *)

val sole_func_name : Ir.op -> string
(** The name of the module's single function; fails if there is not
    exactly one. *)

val run_func :
  t -> ?copy_strategy:Dma_library.strategy -> Ir.op -> string -> Interp.value list -> unit
(** Interpret a function of a compiled module on this SoC. *)

val run_matmul :
  t ->
  ?options:codegen_options ->
  Ir.op ->
  a:Memref_view.t ->
  b:Memref_view.t ->
  c:Memref_view.t ->
  unit
(** Invoke the module's single function on three memref arguments. The
    accel-dialect level (when [to_runtime_calls] was false) honours
    [options.copy_specialization] through the interpreter's copy
    strategy. *)

val run_conv :
  t ->
  ?options:codegen_options ->
  Ir.op ->
  i:Memref_view.t ->
  w:Memref_view.t ->
  o:Memref_view.t ->
  unit
(** The conv sibling of {!run_matmul}: invoke a compiled
    {!build_conv_module} module on input, filter and output views, with
    the copy strategy derived from [options] the same way. *)

val measure : t -> (unit -> unit) -> Perf_counters.t
(** Reset the SoC run state, run the thunk, and return a snapshot of
    the counters. *)

val task_clock_ms : t -> Perf_counters.t -> float
