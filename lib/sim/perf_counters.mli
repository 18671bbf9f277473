(** Performance counters, the simulator's analogue of the Linux [perf]
    events the paper reports (task-clock, cache-references,
    branch-instructions; Sec. IV-B, Fig. 12).

    Counters are floats so that amortised costs (e.g. one branch per
    four vector chunks) can be accumulated exactly. Definitions:

    - [cycles]: CPU clock cycles of the host, including time spent
      blocked on DMA transfers and accelerator completion.
    - [cache_references]: lookups made anywhere in the cache subsystem
      (L1 accesses plus the L2 accesses caused by L1 misses; the
      hierarchy has at most these two levels). A scalar load/store
      counts one L1 access; a 16-byte vectorised chunk counts one (the
      paper's Sec. IV-B NEON-register argument).
    - [branches]: executed branch instructions (loop back-edges,
      per-element copy-loop branches, call/return pairs).
    - [instructions]: rough retired-instruction count (for IPC-style
      sanity checks only). *)

type t = {
  mutable cycles : float;
  mutable instructions : float;
  mutable branches : float;
  mutable l1_accesses : float;
  mutable l1_misses : float;
  mutable l2_accesses : float;
  mutable l2_misses : float;
  mutable dma_transactions : float;
  mutable dma_words_sent : float;
  mutable dma_words_received : float;
  mutable accel_busy_cycles : float;  (** in accelerator clock cycles *)
  mutable flops : float;
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val field_names : string list
(** Counter names in declaration order — the canonical field list that
    {!fields}, {!of_fields}, {!to_json} and the field-wise combinators
    are all derived from, so a newly added counter cannot silently be
    missing from any of them. *)

val fields : t -> (string * float) list
(** [(name, value)] pairs in {!field_names} order. This is what trace
    span snapshots record ({!Trace.enable}'s [snapshot]). *)

val of_fields : (string * float) list -> t
(** Inverse of {!fields}; absent fields default to 0. Raises
    [Invalid_argument] on an unknown field name. *)

val to_json : t -> Json.t
(** An object with one number per counter (used by the trace
    exporters). [of_json_result (to_json c)] is [Ok c]. *)

val of_json_result : Json.t -> (t, string) result
(** Inverse of {!to_json}. Malformed input — a non-object, an unknown
    counter name, a non-numeric value — yields [Error] with a
    field-qualified message ("perf_counters.cycles: ..."). *)

val cache_references : t -> float
(** [l1_accesses + l2_accesses]. *)

val task_clock_ms : t -> cpu_freq_mhz:float -> float
(** Host cycles converted to milliseconds. *)

val add : t -> t -> t
(** Field-wise sum (for aggregating runs). *)

val diff : t -> t -> t
(** Field-wise [a - b] (counter deltas between snapshots). *)

val scale : t -> float -> t

val accumulate : t -> t -> unit
(** In-place field-wise [target += delta] (used by sampled
    simulation to extrapolate measured deltas). *)

val to_string : t -> string
(** One-line summary for logs. *)
