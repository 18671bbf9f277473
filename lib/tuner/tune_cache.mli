(** Persistent tuning-result cache.

    Every compile+simulate evaluation is stored under a key derived
    from everything that determines its outcome: the workload
    dimensions, the fully-instantiated accelerator configuration and
    the candidate knobs. A warm re-run of the same tuning job then
    performs {e zero} pipeline evaluations — the
    ["tuner_evaluations"] metrics counter stays at 0 (asserted in the
    test suite and by [axi4mlir_tune --assert-warm]).

    On-disk format: schema ["axi4mlir-tune-v1"], a JSON object holding
    one entry per key with the human-readable context (workload label,
    dims, candidate) and the outcome (cycles, or a rejection reason).
    Keys use {!Benchdiff.config_hash}, which carries a documented
    compatibility guarantee — see [benchdiff.mli]. Unknown schemas are
    refused rather than silently reinterpreted. *)

val schema : string
(** ["axi4mlir-tune-v1"]. *)

type outcome =
  | Cycles of float  (** simulated host cycles of the evaluated run *)
  | Rejected of string  (** the pipeline refused the config (reason) *)

type t

val create : unit -> t
(** An empty in-memory cache (no backing file until {!save}). *)

val key :
  Tune_workload.t -> Accel_config.t -> Tune_space.candidate -> string
(** The cache key: {!Benchdiff.config_hash} over the canonical JSON of
    the workload dims, [Accel_config.to_json] and
    {!Tune_space.candidate_to_json}. *)

val find : t -> string -> outcome option

val add :
  t ->
  key:string ->
  label:string ->
  workload:Tune_workload.t ->
  candidate:Tune_space.candidate ->
  outcome ->
  unit
(** Insert (last write wins). The label/workload/candidate are stored
    alongside for human inspection of the cache file only — identity is
    the key. *)

val size : t -> int

val of_json_result : Json.t -> (t, string) result
(** Inverse of the saved document; malformed input is an [Error] with a
    field-qualified message ("tune.entries[0].key: missing field"). *)

val load : string -> (t, string) result
(** Read a cache file. A missing file yields an empty cache (first run);
    unreadable JSON or a wrong schema is an [Error]. *)

val save : t -> string -> unit
(** Write the cache (pretty-printed, stable entry order by first
    insertion; loaded entries keep their order). *)
