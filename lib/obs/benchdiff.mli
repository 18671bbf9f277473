(** Benchmark baselines and the perf-regression gate.

    The bench harness emits one self-describing [BENCH_<exp>.json]
    artifact per experiment; committed copies under [bench/baselines/]
    are the blessed reference. This module owns the artifact schema and
    the comparison: per-metric {e relative} tolerances with a direction
    (lower-better, higher-better, or drift-in-either-direction), so
    `dune runtest` can fail on a hot-path regression the way it already
    fails on a correctness one.

    The simulator is deterministic, so fresh numbers normally match the
    baseline bit-for-bit; tolerances exist to absorb deliberate cost-
    model adjustments small enough not to change the paper's
    conclusions. Anything larger fails the gate until the baselines are
    re-blessed ([axi4mlir_benchdiff --bless]). *)

type point = {
  pt_id : string;  (** stable per-experiment id, e.g. ["fig10/003"] *)
  pt_kind : string;  (** measurement kind, e.g. ["cpu_matmul"] *)
  pt_dims : int list;  (** workload dims when known, [[]] otherwise *)
  pt_config : string;  (** accelerator-config hash (hex) *)
  pt_metrics : (string * float) list;  (** canonical metric set *)
}

type doc = {
  doc_experiment : string;
  doc_quick : bool;  (** measured with trimmed [--quick] sweeps *)
  doc_points : point list;
}

val metrics_of_fields : (string * float) list -> (string * float) list
(** Canonical per-point metrics derived from {!Perf_counters.fields}:
    the raw counters that matter for the paper's figures (cycles,
    instructions, branches, l1/l2 misses, dma_transactions, flops,
    accel_busy_cycles) plus derived [cache_references]
    (l1 + l2 accesses), [dma_words] (sent + received) and
    [gflops_per_cycle] (flops/cycles; 0 for a zero-cycle run). *)

(** {1 Config hashing}

    COMPATIBILITY GUARANTEE: {!stable_hash} (and therefore
    {!config_hash}) is part of two persisted formats — the
    [axi4mlir-bench-v1] artifact's per-point [config] field and the
    autotuner's [axi4mlir-tune-v1] result cache, whose keys embed the
    hash. The algorithm (64-bit FNV-1a over the bytes, 16 lowercase hex
    digits) must NOT change across releases: changing it silently
    invalidates every committed baseline and every user's warm tuning
    cache. A golden test pins the hash of a fixed {!Accel_config} (via
    its canonical JSON); if you believe you must change the algorithm,
    bump the schema strings of both formats in the same commit. *)

val stable_hash : string -> string
(** 64-bit FNV-1a of the bytes, as 16 lowercase hex digits. Stable
    across OCaml versions and platforms (unlike [Hashtbl.hash]). *)

val config_hash : Json.t -> string
(** {!stable_hash} of the compact (non-indented) {!Json.to_string}
    rendering — the canonical hash of an accelerator configuration's
    [Accel_config.to_json] form. *)

(** {1 Artifact I/O} *)

val to_json : doc -> Json.t
val of_json_result : Json.t -> (doc, string) result
(** Malformed input is an [Error] with a field-qualified message
    ("bench.points[0].id: missing field"). *)

val filename : string -> string
(** [filename exp] is ["BENCH_<exp>.json"]. *)

val write_file : string -> doc -> unit
val read_file : string -> (doc, string) result
(** [Error] ("FILE: ...") on unreadable files, JSON syntax errors,
    schema mismatches and malformed fields alike — the gate treats all
    of them as failures, never exceptions. *)

(** {1 Comparison} *)

type direction =
  | Lower_better  (** regression = fresh above baseline (cycles, misses) *)
  | Higher_better  (** regression = fresh below baseline (GFLOPs/cycle) *)
  | Exact  (** regression = drift either way (DMA words, flops) *)

val tolerances : (string * (float * direction)) list
(** Default relative tolerance and direction per canonical metric.
    Metrics absent from this table are compared with [Exact] at 0. *)

type finding = {
  f_point : string;
  f_metric : string;
  f_baseline : float;
  f_fresh : float;
  f_rel : float;  (** signed relative change, [(fresh - base) / |base|] *)
}

type verdict = {
  v_experiment : string;
  v_compared : int;  (** metric comparisons performed *)
  v_regressions : finding list;
  v_improvements : finding list;  (** beyond-tolerance changes in the good direction *)
  v_missing : string list;  (** baseline point ids absent from the fresh run *)
  v_extra : string list;  (** fresh point ids absent from the baseline *)
}

val compare_docs : baseline:doc -> fresh:doc -> verdict
(** Compare under {!tolerances}. Point ids are matched exactly; a
    missing or extra point is a gate failure (re-bless after
    intentionally changing an experiment). *)

val ok : verdict -> bool
(** No regressions, no missing points, no extra points. Improvements
    alone do not fail the gate (but do suggest re-blessing). *)

val render_verdict : verdict -> string
(** Human-readable summary, one line per finding. *)
