(** Step 3 of the compiler flow: find [linalg.generic] operations the
    configured accelerator supports and annotate them with the Fig. 6a
    trait (tile sizes resolved for the concrete problem, the derived
    loop permutation, the opcode map/flow, and the cache-level host
    tiles).

    An operation that structurally matches but cannot be mapped (extent
    not divisible by the tile, operand tile exceeding the accelerator
    buffers, flow deeper than the loop nest) gets a Missed remark, and
    the pass raises {!Rejected}. *)

exception Rejected of string
(** The one "cannot offload" outcome:
    ["AXI4MLIR: cannot offload: ACCEL: REASON"]. {!Pipeline.run_result}
    returns it as [Error]; the tuner, the serving oracle and the CLIs
    catch it. *)

val annotate_op :
  accel:Accel_config.t ->
  host:Host_config.t ->
  options:Codegen_options.t ->
  Ir.op ->
  (Ir.op, string) result
(** Annotate one matching generic op (exposed for tests). *)

val pass :
  accel:Accel_config.t -> host:Host_config.t -> ?options:Codegen_options.t -> unit -> Pass.t
(** Reads [flow], [tiles], [cpu_tiling] and [double_buffer] of
    [options] (default {!Codegen_options.default}). *)
