(** Windowed telemetry for the serving simulator: what {!Serve_sim}
    records when a run is observed, and the four ways it surfaces —
    the ASCII dashboard ({!Serve_report.render_dashboard}), Perfetto
    counter tracks ({!annotate_trace}), the [axi4mlir-telemetry-v1]
    JSON artifact ({!write_file}) and the {!Slo} evaluations.

    A collector wraps one {!Timeseries.t} with a fixed series schema:

    - [arrivals], [completions], [rejections], [kernels] — {!Timeseries.Sum}
      event counts per window ([arrivals] counts every {e offered}
      request, admitted or not; [completions] land in the window of
      their finish time);
    - [queue_depth], [in_flight] — {!Timeseries.Max} level signals
      sampled at every dispatch decision;
    - [latency] — a distribution of per-request arrival-to-finish
      cycles, observed at finish time (so per-window and rolling p99
      are exact nearest-rank values);
    - [accel<i>_busy] — busy cycles per window per accelerator
      instance (service intervals are split across the windows they
      overlap, so a window's busy fraction is its value / width).

    {!Serve_sim.run} takes the collector as [?telemetry]; when absent,
    the scheduler pays nothing (the same zero-cost discipline as
    {!Trace} and {!Metrics}). Recording never influences scheduling.

    {2 The [axi4mlir-telemetry-v1] artifact}

    COMPATIBILITY RULE (same as [axi4mlir-serve-v1]): the schema is
    {e add-only} — new fields may be appended to any object; existing
    fields must never be renamed, re-typed, reordered or removed. A
    golden test under [test/golden/] pins the rendering byte for byte;
    bump the schema string if a breaking change is ever unavoidable. *)

type t

val create : window:float -> accels:int -> (t, string) result
(** A collector with the given window width in simulated cycles;
    [Error] when the width is not positive or [accels < 1]. *)

val window_width : t -> float

val accels : t -> int

val timeseries : t -> Timeseries.t
(** The underlying collector, for direct series access (dashboard
    rendering, tests). *)

(** The series names, exported so readers (dashboard, tests) never
    drift from the recording side. Part of the telemetry-v1 schema. *)

val s_arrivals : string
val s_completions : string
val s_rejections : string
val s_kernels : string
val s_queue : string
val s_in_flight : string
val s_latency : string

val busy_series : int -> string
(** [busy_series i] = ["accel<i>_busy"]. *)

(** {1 Recording hooks (called by {!Serve_sim})} *)

val on_arrival : t -> at:float -> unit
(** Every offered request, at its arrival time (before admission). *)

val on_reject : t -> at:float -> unit

val on_dispatch :
  t -> at:float -> accel:int -> start:float -> finish:float -> queue:int -> in_flight:int -> unit
(** One kernel dispatch: bumps [kernels] at the decision time [at],
    samples [queue_depth] (post-removal backlog) and [in_flight], and
    spreads the service interval [[start, finish]] over the
    [accel<i>_busy] windows it overlaps. *)

val on_complete : t -> finish:float -> latency:float -> unit
(** One request completion, in the window of its finish time. *)

(** {1 Views} *)

val busy_fraction : t -> int -> float option array
(** Per-window busy fraction of one accelerator instance
    (busy cycles / window width, in [[0, 1]]). *)

val totals : t -> (string * float) list
(** Whole-run reconciliation totals, in schema order: [arrivals],
    [completions], [rejections], [kernels] — each must equal the
    corresponding {!Serve_sim.outcome} count ({!Serve_report} and the
    bench gate check this exactly). *)

val evaluate : t -> Slo.spec list -> Slo.eval list
(** {!Slo.evaluate} of each spec over its per-window event counts:
    latency objectives read the [latency] distribution (bad = samples
    above the limit), availability objectives read
    [arrivals]/[rejections] (bad = rejected). *)

(** {1 Export} *)

val annotate_trace : t -> Trace.t -> unit
(** Emit one Perfetto counter sample per populated window onto
    {!Trace.serve_telemetry_track}: queue depth, in-flight count,
    per-window arrival/completion/rejection counts, rolling p99
    latency and per-accelerator busy fraction. *)

val to_json : (string * t * Slo.eval list) list -> Json.t
(** The [axi4mlir-telemetry-v1] document over per-policy collectors:
    schema string, then one entry per policy carrying its window
    width, series (dense per-window values), totals and SLO
    evaluations. *)

val write_file : string -> (string * t * Slo.eval list) list -> unit
(** [Json.to_string ~indent:1] plus a trailing newline — the
    byte-stable rendering the golden test pins. *)
