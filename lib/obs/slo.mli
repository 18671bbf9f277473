(** Service-level objectives over windowed telemetry: declarative
    specs, error-budget accounting, and multi-window burn-rate alerts
    with hysteresis.

    {2 Specs}

    A spec is parsed from the compact form the CLI takes
    ([axi4mlir_serve --slo SPEC]):

    - [pP<=LIMIT[@W]] — a latency objective: at most [(100-P)%] of the
      window's requests may exceed [LIMIT] cycles (e.g. [p99<=250000]).
      [P] must be one of 50/90/95/99.
    - [availability>=TARGET[@W]] — an admission objective: at least
      [TARGET] of the window's offered requests must be admitted
      (not rejected). [TARGET] is a percentage with [%] ([99.9%]) or a
      fraction ([0.999]).

    [@W] sets the burn-rate long window to [W] telemetry windows
    (default 4).

    {2 Burn rate and alerting}

    Each objective implies a per-event error budget [b] (latency pP:
    [b = (100-P)/100]; availability [>=T]: [b = 1-T]). For a telemetry
    window holding [total] events of which [bad] violate the objective,
    the {e burn rate} is [(bad/total)/b] — 1.0 means the budget is
    being consumed exactly at the sustainable rate, 2.0 twice as fast.

    The alert follows the SRE multi-window pattern: it {e fires} in the
    first window where both the short burn (that window alone) and the
    long burn (event-weighted over the trailing [W] windows) reach the
    [fire] threshold, and {e resolves} only when the long burn falls
    below the [resolve] threshold — the gap between the two thresholds
    is the hysteresis band that stops a hovering burn rate from
    flapping. Transitions are returned in order and can be logged as
    {!Remarks} and [slo.*] metrics. *)

type objective =
  | Latency of { pct : int; limit : float }
      (** [pP<=limit]: a window sample is bad when its latency
          strictly exceeds [limit] cycles. *)
  | Availability of { target : float }
      (** [availability>=target] with [target] a fraction in [(0, 1)];
          a window event is bad when the request was rejected. *)

type spec = {
  so_raw : string;  (** the spec as parsed, canonically rendered *)
  so_objective : objective;
  so_windows : int;  (** the burn-rate long window, in telemetry windows *)
}

val parse : string -> (spec, string) result
(** Parse the compact form. The error names the offending part and
    shows the accepted grammar. *)

val to_string : spec -> string
(** Canonical rendering (also [so_raw]): [p99<=250000@4],
    [availability>=99.9%@4]. *)

val budget : spec -> float
(** The per-event error budget [b] (see above); always in [(0, 1)]. *)

(** {1 Evaluation} *)

type window_data = { wd_total : int; wd_bad : int }
(** One telemetry window's event counts against the objective. *)

type state = Budget_ok | Firing

val state_to_string : state -> string

type window_eval = {
  we_index : int;
  we_total : int;
  we_bad : int;
  we_burn : float;  (** short burn: this window alone; 0 when empty *)
  we_long_burn : float;
      (** event-weighted burn over the trailing [so_windows] windows *)
  we_state : state;  (** after hysteresis *)
}

type transition = {
  tr_window : int;  (** window index where the state flipped *)
  tr_state : state;  (** the new state *)
  tr_long_burn : float;
}

type eval = {
  sv_spec : spec;
  sv_budget : float;
  sv_fire : float;
  sv_resolve : float;
  sv_windows : window_eval list;  (** ascending window order *)
  sv_transitions : transition list;  (** in order; Firing/resolved pairs *)
  sv_total : int;  (** events over the whole run *)
  sv_bad : int;
  sv_budget_spent : float;
      (** [bad / (budget * total)]: 1.0 = the run's whole error budget;
          0 when the run saw no events *)
  sv_fired : int;  (** number of Firing transitions *)
  sv_final : state;
}

val evaluate : spec -> window_data array -> eval
(** Evaluate the objective over per-window counts (index = telemetry
    window index), with [fire = 2.0] and [resolve = 1.0]. *)

val met : eval -> bool
(** No alert ever fired and the run-level budget was not exhausted
    ([sv_fired = 0 && sv_budget_spent <= 1.0]). *)

(** {1 Emission} *)

val render : eval -> string
(** Human-readable summary: the objective, budget spent, worst burn,
    and one line per transition. *)

val emit_remarks : ?loc:string -> eval -> unit
(** One [Analysis] remark per transition (pass ["slo-monitor"], names
    ["burn-rate-firing"]/["burn-rate-resolved"]) plus a final
    ["budget"] remark carrying budget spent — no-ops when the default
    collector is disabled. *)

val emit_metrics : ?labels:Metrics.labels -> eval -> unit
(** [slo.alerts_fired] (counter), [slo.budget_spent] and
    [slo.worst_burn] (gauges), labelled with [slo=<spec>] plus
    [labels]. No-ops when the default registry is disabled. *)

val to_json : eval -> Json.t
(** The evaluation as a self-contained JSON object (spec, thresholds,
    per-window burns, transitions, totals) — embedded by the
    [axi4mlir-telemetry-v1] artifact. *)
