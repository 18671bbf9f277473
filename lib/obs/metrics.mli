(** Process-wide metrics registry: named counters, gauges and log-scale
    histograms with label sets.

    Where {!Trace} answers "what happened when" for a single run, the
    registry answers "how much, in total": every instrumented layer
    (the DMA runtime library, the DMA engines, the interpreter, the
    pass manager) bumps named series as it works, and a snapshot at any
    point yields a structured dump — text for the terminal, JSON for
    artifacts written next to a run's trace.

    Series are identified by (name, label set). Labels are free-form
    [(key, value)] string pairs; in this project they carry the
    experiment context (workload, engine version, flow, copy strategy).
    A registry also holds {e ambient} labels that are merged into every
    subsequently recorded series, so harness code can stamp a whole
    phase ("experiment=fig10") without threading labels through every
    instrumentation point.

    Like the tracer, a registry is created {e disabled} and every
    recording operation on a disabled registry is a cheap no-op (one
    load and branch). Nothing here ever touches the simulated
    performance counters, so enabling metrics cannot change simulated
    results. Instrumented modules record into {!default}. *)

type labels = (string * string) list
(** Label pairs. Order does not matter: series identity uses the
    key-sorted form, and duplicate keys keep the first occurrence. *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh, disabled registry with no series and no ambient labels. *)

val default : t
(** The shared registry all built-in instrumentation records into. *)

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val reset : t -> unit
(** Drop every series (keeping the enabled flag and ambient labels).
    Called between measured runs / experiments. *)

val set_ambient : t -> labels -> unit
(** Replace the ambient labels merged into every subsequent record
    operation. Explicit per-record labels win on key collision. *)

(** {1 Recording}

    All recording operations are no-ops on a disabled registry. A name
    must be used consistently as one kind (counter / gauge / histogram);
    recording it as a different kind raises [Invalid_argument] — that is
    an instrumentation bug, not a data condition. *)

val incr : ?reg:t -> ?labels:labels -> ?by:float -> string -> unit
(** Add [by] (default 1) to a counter, creating it at 0 first. *)

val set_gauge : ?reg:t -> ?labels:labels -> string -> float -> unit
(** Set a gauge to a value (last write wins). *)

val observe : ?reg:t -> ?labels:labels -> string -> float -> unit
(** Record one observation into a log-scale histogram: bucket [i] holds
    observations in [(2^(i-1), 2^i]], bucket 0 everything [<= 1], and
    observations beyond the last bucket land in a dedicated overflow
    bucket. Count, sum, min and max are tracked exactly. *)

(** {1 Snapshots} *)

type histogram_view = {
  h_count : int;  (** total observations, including overflow *)
  h_sum : float;
  h_min : float option;  (** [None] iff the histogram is empty *)
  h_max : float option;
  h_buckets : (float * int) list;
      (** non-empty buckets as [(upper_bound, count)], ascending *)
  h_overflow : int;  (** observations above the last bucket bound *)
}

type point =
  | Counter_v of float
  | Gauge_v of float
  | Histogram_v of histogram_view

type sample = { s_name : string; s_labels : labels; s_point : point }

val snapshot : ?reg:t -> unit -> sample list
(** All series in first-recorded order; label sets of the same name
    stay grouped by first appearance. Stable across calls. *)

val counter_value : ?reg:t -> ?labels:labels -> string -> float
(** A single counter/gauge series' value; 0 when absent. *)

val total : ?reg:t -> string -> float
(** Sum of a name's counter/gauge values across every label set
    (histograms contribute their [h_sum]); 0 when absent. The parity
    checks against {!Perf_counters} use this. *)

val quantile : histogram_view -> float -> float option
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) from the
    bucket counts: the answer is the bound of the bucket holding the
    rank-[ceil(q * count)] observation, clamped into [[h_min, h_max]] —
    so a single-observation histogram reports that exact value for
    every [q], and quantiles landing in the overflow bucket report
    [h_max]. [None] iff the histogram is empty. *)

(** {1 Export} *)

val to_json : ?reg:t -> unit -> Json.t
(** The snapshot as a self-describing JSON object
    ([{"schema": "axi4mlir-metrics-v1", "series": [...]}]). *)

val render : ?reg:t -> unit -> string
(** Prometheus-flavoured text: one [name{k="v"} value] line per
    counter/gauge; histograms expand to [_count], [_sum], cumulative
    [_bucket{le="<bound>"}] lines (each populated power-of-two bound
    plus the [le="+Inf"] catch-all, which always equals [_count]) and
    p50/p90/p99 estimate lines. Empty registry renders a one-line
    placeholder. *)
