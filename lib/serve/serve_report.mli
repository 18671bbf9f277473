(** Serving-run accounting: latency distributions, the rendered
    per-policy comparison table, the byte-stable [axi4mlir-serve-v1]
    JSON artifact, and the Perfetto trace export.

    {2 The [axi4mlir-serve-v1] artifact}

    COMPATIBILITY RULE (same as [axi4mlir-critpath-v1]): the schema is
    {e add-only}. New fields may be appended to any object; existing
    fields must never be renamed, re-typed, reordered or removed —
    a golden test under [test/golden/] pins the rendering byte for
    byte. If a breaking change is ever unavoidable, bump the schema
    string. *)

type dist = {
  d_mean : float;
  d_p50 : float;
  d_p95 : float;
  d_p99 : float;
  d_max : float;
}

val dist_of : float list -> dist
(** Mean, nearest-rank percentiles ({!Timeseries.percentile}) and max
    of the samples; all zero on the empty list. *)

type accel_row = {
  ar_id : int;
  ar_engine : string;
      (** Table I engine preset name on this slot (["v4_16"] for the
          pre-platform homogeneous fleet) *)
  ar_busy : float;  (** cycles serving *)
  ar_util : float;  (** busy / makespan; [0.] for an empty run *)
  ar_requests : int;
  ar_dispatches : int;
}

type summary = {
  sm_policy : Serve_policy.t;
  sm_requests : int;  (** offered (generated) requests *)
  sm_completed : int;
  sm_rejected : int;
  sm_dispatches : int;  (** kernel invocations (< completed under Batch) *)
  sm_makespan : float;  (** cycles *)
  sm_throughput_rps : float option;
      (** completed per wall second at [freq_mhz]; [None] when nothing
          completed (no makespan to divide by — rendered "n/a", 0 in
          the JSON artifact to keep the v1 field type) *)
  sm_utilization : float option;
      (** mean accelerator utilization; [None] on an empty run *)
  sm_latency : dist;  (** per-request arrival-to-finish cycles *)
  sm_queue : dist;  (** per-request arrival-to-start cycles *)
  sm_accels : accel_row list;
}

val summarize :
  ?engines:string list ->
  freq_mhz:float ->
  Serve_policy.t ->
  Serve_sim.outcome ->
  summary
(** [engines] names the engine on each accelerator slot, by index (a
    platform's {!Platform_ir.instance_names}); absent (or too short),
    slots default to the homogeneous fleet's ["v4_16"]. *)

type t = {
  rp_workloads : string list;  (** the CLI specs, repeats preserved *)
  rp_seed : int;
  rp_rps : float;  (** offered load, requests per second *)
  rp_requests : int;
  rp_accels : int;
  rp_queue_cap : int option;
  rp_batch_max : int;
  rp_freq_mhz : float;
  rp_platform : string option;
      (** the platform description's one-line summary when the run was
          instantiated from one ([axi4mlir_serve --platform]); [None]
          for a plain [--accels] run. Serialized as the add-only
          ["platform"] field of the artifact. *)
  rp_summaries : summary list;
}

val render : t -> string
(** The per-policy comparison table plus per-accelerator utilization
    rows, as printed by [axi4mlir_serve --report]. *)

val render_dashboard :
  ?slos:Slo.eval list -> policy:Serve_policy.t -> Serve_telemetry.t -> string
(** The ASCII telemetry dashboard printed by [axi4mlir_serve
    --dashboard]: one sparkline row per series (arrival/completion/
    rejection/kernel rates, queue depth, in-flight count, rolling p99
    latency, per-accelerator busy fraction), each scaled to its own
    maximum, followed by one {!Slo.render} block per evaluation. *)

val to_json : t -> Json.t
(** The [axi4mlir-serve-v1] document (see the compatibility rule). *)

val write_file : string -> t -> unit
(** [Json.to_string ~indent:1] plus a trailing newline — the
    byte-stable rendering the golden test pins. *)

(** {2 Perfetto export} *)

val annotate_trace : Trace.t -> Serve_sim.outcome -> unit
(** Record the outcome onto an enabled tracer: one Complete slice per
    dispatch on its accelerator's {!Trace.serve_accel_track}, and one
    per-request lifetime span (arrival to finish, with queueing time
    and batch in the args) on {!Trace.serve_request_track}. *)

val track_names : Serve_sim.outcome -> (int * string) list
(** Thread-name metadata for {!Chrome_trace.write_file}. *)

val write_trace :
  ?telemetry:Serve_telemetry.t -> freq_mhz:float -> string -> Serve_sim.outcome -> unit
(** Write a standalone Chrome trace of the outcome to a path. With
    [telemetry], the per-window counter curves ride along on
    {!Trace.serve_telemetry_track} as Perfetto counter tracks. *)
