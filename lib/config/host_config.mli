(** Host-CPU system description — the "cpu" half of the configuration
    file (paper Fig. 5): clock frequency and the cache hierarchy the
    tiling pass exploits. *)

type t = {
  cpu_name : string;
  frequency_mhz : float;
  caches : Cache.geometry list;  (** ordered L1 outward *)
}

val pynq_z2 : t
(** The paper's evaluation platform: Cortex-A9 at 650 MHz with 32 KiB
    L1 and 512 KiB L2. *)

val of_json_result : Json.t -> (t, string) result
(** Parse the ["cpu"] object. Malformed input, including a cache
    geometry {!Cache.check_geometry} rejects or a [caches] list that is
    not 1 or 2 levels long ({!Cost_model} prices L1, L2 and DRAM only),
    yields [Error] with a field-qualified message ("cpu.caches[0].assoc:
    must be positive"). *)

val to_json : t -> Json.t

val last_level_cache_bytes : t -> int
(** Size of the outermost cache (0 when there is none) — the capacity
    the cache-aware tiling targets. *)

val l1_bytes : t -> int
