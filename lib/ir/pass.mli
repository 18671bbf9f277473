(** Pass manager: named module-to-module transformations with
    verification of the input and after every pass, per-pass timing and trace emission,
    mirroring MLIR's [PassManager] (and its [-mlir-timing]
    instrumentation). *)

type t = { pass_name : string; run : Ir.op -> Ir.op }

val make : string -> (Ir.op -> Ir.op) -> t

type pass_stat = {
  st_pass : string;  (** pass name *)
  st_seconds : float;  (** process time spent in the pass ([Sys.time]) *)
  st_ops_before : int;  (** op count entering the pass *)
  st_ops_after : int;  (** op count leaving the pass *)
}

exception
  Pass_failure of { pass : string; failing_op : string; message : string }
(** Raised when verification fails: the pass that produced the invalid
    IR (or {!input} when the module given to {!run_pipeline} is already
    invalid), the op the verifier rejected, and the reason. Nothing is
    printed; the CLIs turn it into one error line. *)

val input : string
(** The [pass] of a {!Pass_failure} raised on the pipeline's input,
    before any pass ran. *)

val run_pipeline : ?stats:pass_stat list ref -> ?tracer:Trace.t -> t list -> Ir.op -> Ir.op
(** Fold the module through [passes], running
    {!Verifier.verify_structured} on the input and after each pass. When [stats] is given, one
    {!pass_stat} is appended per pass (in execution order). When
    [tracer] is given, each pass emits a complete event on
    {!Trace.compile_track}, stamped with {e process-time} microseconds
    (the simulated clock does not exist at compile time). *)

val report_stats : pass_stat list -> string
(** Render stats like MLIR's [-mlir-timing] report: per-pass wall time,
    share of the total, and op-count deltas. *)
