(** [perf report]-style phase breakdowns derived from a trace.

    Host-track spans are rebuilt into a tree; each span's counter
    deltas (the [d_*] args attached by {!Trace.end_span}) are split into
    {e exclusive} (self) amounts — a parent is charged only for what its
    own body accumulated outside every child span. Self amounts are then
    rolled up by span {e category}, which is how the instrumentation
    names phases ([copy_to_accel], [dma_send], [accel_wait], ...). Time
    not covered by any span lands in a synthetic [host] phase, so the
    per-phase cycle totals always sum (up to float rounding) to the
    aggregate counter value passed as [total]. *)

type phase = {
  ph_name : string;  (** span category, or ["host"] for uncovered time *)
  ph_totals : (string * float) list;  (** exclusive counter totals *)
  ph_count : int;  (** number of spans contributing *)
}

val phase_breakdown : total:(string * float) list -> Trace.event list -> phase list
(** [total] is the aggregate counter state over the whole run
    ({!Perf_counters.fields} of the final counters, assuming they were
    reset when recording started); it defines the field universe and
    the [host] residual. Phases are sorted by descending cycles. *)

val phase_field : phase -> string -> float
(** A field total, 0 if absent. *)

(** {1 Derived metrics}

    All derived metrics are ratios and all return [None] — never NaN or
    infinity — when their denominator is zero (a phase or run that
    accumulated no cycles, a run with no DMA traffic, a zero frequency).
    {!render} prints such metrics as ["n/a"]. *)

val task_clock_ms : cpu_freq_mhz:float -> total:(string * float) list -> float option
(** Host cycles as milliseconds; [None] when [cpu_freq_mhz <= 0]. *)

val flops_per_cycle : total:(string * float) list -> float option
(** Achieved host FLOPs per cycle; [None] for a zero-cycle run. *)

val arithmetic_intensity : total:(string * float) list -> float option
(** FLOPs per byte crossing the AXI stream; [None] when no DMA words
    moved. *)

val dma_bandwidth_pct :
  bus_words_per_cpu_cycle:float -> total:(string * float) list -> phase list -> float option
(** Achieved share (percent) of the AXI-S peak during the [dma_send] /
    [dma_recv] phases; [None] when those phases have zero cycles, no
    words moved, or the bus rate is zero. *)

val occupancy_pct :
  cpu_freq_mhz:float -> accel_freq_mhz:float -> total:(string * float) list -> float option
(** Share (percent) of the run the accelerator was busy; [None] for a
    zero-cycle run or a zero frequency. *)

val overlap_ratio :
  total:(string * float) list -> Trace.event list -> float option
(** Async overlap: summed durations of Complete events on the
    per-engine (async) tracks over total cycles — how much transfer /
    accelerator time ran concurrently with the host. [None] when the
    run issued no asynchronous operations (every blocking run). Can
    exceed 1 when several agents overlap each other. *)

(** {1 Rendering} *)

val render :
  ?cpu_freq_mhz:float ->
  ?bus_words_per_cpu_cycle:float ->
  ?accel_freq_mhz:float ->
  total:(string * float) list ->
  Trace.event list ->
  string
(** The textual report: a phase table (cycles, %, instructions, DMA
    words, cache misses per phase) followed by derived whole-run
    metrics — task-clock, achieved FLOPs/cycle, arithmetic intensity
    (FLOPs per DMA byte), DMA bandwidth utilisation during transfer
    phases (requires [bus_words_per_cpu_cycle]) and accelerator
    occupancy (requires [accel_freq_mhz] together with
    [cpu_freq_mhz]). *)
