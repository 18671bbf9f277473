(** Assembled pass pipelines mirroring the AXI4MLIR compiler flow
    (Fig. 4). *)

type t = { accel : Accel_config.t; host : Host_config.t; options : Codegen_options.t }

val make :
  accel:Accel_config.t -> host:Host_config.t -> ?options:Codegen_options.t -> unit -> t
(** [options] defaults to {!Codegen_options.default}. *)

val passes : t -> Pass.t list
(** Match-and-annotate and accel codegen, then coalescing (when
    [coalesce_transfers]), double buffering (self-gating on the trait),
    the runtime-call lowering (when [to_runtime_calls]), copy
    specialisation (when both [copy_specialization] and
    [to_runtime_calls]) and canonicalisation. *)

val run : ?stats:Pass.pass_stat list ref -> ?tracer:Trace.t -> t -> Ir.op -> Ir.op
(** Run on a module. Registers all dialect verifiers first. [stats] and
    [tracer] are forwarded to {!Pass.run_pipeline} for per-pass timing
    and compile-track trace events. An op the accelerator cannot take,
    or a [linalg.generic] it does not match, raises
    {!Match_annotate.Rejected}. *)

val run_result :
  ?stats:Pass.pass_stat list ref ->
  ?tracer:Trace.t ->
  t ->
  Ir.op ->
  (Ir.op, string) result
(** As {!run}, with {!Match_annotate.Rejected} as [Error] (other
    exceptions propagate). The differential fuzzer relies on this to
    tell a clean rejection apart from a mis-execution. *)

val cpu_passes : Pass.t list
(** The CPU-only reference pipeline: [linalg.generic] -> loops. *)

val run_cpu : ?stats:Pass.pass_stat list ref -> ?tracer:Trace.t -> Ir.op -> Ir.op
