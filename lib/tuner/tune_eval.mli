(** One candidate through the real pipeline: build the workload module,
    compile it with the candidate's codegen options on a fresh
    simulated SoC, run it, and read the performance counters.

    This is the expensive leg of the tuner — everything in
    {!Tune_prune} exists to avoid calling it. Each successful call
    bumps the ["tuner_evaluations"] metrics counter (the counter the
    warm-cache test pins at zero) and, when a tracer is given, records
    a complete event on {!Trace.tuner_track} spanning the evaluation's
    host-process time.

    A pipeline rejection (the matcher refusing to offload, a pass
    failure) is an [Error], not an exception: rejected candidates are a
    normal part of design-space exploration and are cached like any
    other outcome. *)

type outcome = {
  ev_cycles : float;  (** simulated host cycles of the measured run *)
  ev_counters : Perf_counters.t;
  ev_bottleneck : string option;
      (** the binding resource ("host" | "dma" | "accel") the perf
          doctor attributes the run's critical path to; [None] when the
          analysis failed. Only fresh evaluations carry it — the tune
          cache does not persist bottlenecks. *)
}

val prepare :
  ?host:Host_config.t ->
  batch:int ->
  Accel_config.t ->
  options:Axi4mlir.codegen_options ->
  Tune_workload.t ->
  Axi4mlir.t * (unit -> unit)
(** Set one kernel up for measurement: a fresh SoC for the engine, the
    workload's operands allocated (before compiling, so the simulated
    addresses every caller has always measured stay put), its module
    built and compiled with [options]. Returns the SoC and the thunk
    that runs the compiled kernel once; time it with
    {!Axi4mlir.measure}. [batch] scales the leading dimension: matmul
    [m -> batch * m] (the weights [B] shared across the batch), conv
    [n = batch] images. Raises as the pipeline does
    ({!Match_annotate.Rejected}, {!Pass.Pass_failure}). *)

val evaluate :
  ?host:Host_config.t ->
  ?tracer:Trace.t ->
  Tune_workload.t ->
  Tune_space.candidate ->
  (outcome, string) result
(** Compile+simulate the candidate on the workload ({!prepare} at
    batch 1, then {!Axi4mlir.measure}). [tracer] is the {e tuning} tracer (tuner track), not the simulated
    SoC's. *)

val diagnose :
  ?host:Host_config.t ->
  Tune_workload.t ->
  Tune_space.candidate ->
  (Doctor.diagnosis, string) result
(** Re-run the candidate (one full compile+simulate, uncached and not
    counted as a tuner evaluation) and hand the measured run to the
    perf doctor. Used by [axi4mlir-tune --doctor] to diagnose the
    winning configuration. *)
