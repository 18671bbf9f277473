(** The event-cost model of the simulated SoC.

    Calibrated against the paper's platform (PYNQ-Z2: dual-core ARM
    Cortex-A9 at 650 MHz, accelerators synthesised at 200 MHz, AXI-S
    DMA engines). The individual constants are ordinary
    microarchitecture numbers — the paper's result shapes must emerge
    from the mechanisms (locality, transfer counts, copy
    specialisation), not from fitting. *)

type t = {
  cpu_freq_mhz : float;
  accel_freq_mhz : float;
  bus_words_per_cpu_cycle : float;
      (** AXI-S streaming rate seen from the CPU clock domain: a 32-bit
          word every [1 / this] CPU cycles. *)
  dma_program_cycles : float;
      (** CPU cycles to program a DMA descriptor and start a transfer
          ([dma_start_send]/[dma_start_recv]). *)
  dma_wait_cycles : float;
      (** CPU cycles of completion-polling overhead per wait call. *)
  alu_cycles : float;  (** integer ALU op *)
  fpu_cycles : float;  (** scalar FP add/mul *)
  branch_cycles : float;  (** predicted branch *)
  loop_overhead_cycles : float;  (** per-iteration cmp+inc+branch beyond the counted branch *)
  l1_hit_cycles : float;
  l2_hit_cycles : float;
      (** additional cycles on an L1 miss, paid only when there is an
          L2 *)
  dram_cycles : float;
      (** additional cycles when the last cache level misses. The model
          prices at most two cache levels. *)
  uncached_store_cycles : float;
      (** store to the uncached DMA region (write-combined) per word *)
  uncached_load_cycles : float;  (** load from the uncached DMA region per word *)
  memcpy_row_setup_cycles : float;
      (** per-run setup of the specialised copy (the compiler inlines
          the [memcpy], so this is address setup, not a call) *)
  vector_chunk_bytes : int;  (** width of a vectorised copy chunk (NEON: 16) *)
  elementwise_element_overhead_cycles : float;
      (** per-element stride arithmetic + loop body of the generic
          rank-N memref copy (excludes the cache access itself) *)
  memref_metadata_accesses : float;
      (** per-element size/stride struct loads of the generic copy
          (cache accesses, typically L1 hits) *)
}

val default : t
(** PYNQ-Z2-flavoured defaults (650/200 MHz etc.). *)

val accel_to_cpu_cycles : t -> float -> float
(** Convert accelerator cycles to CPU cycles. *)

val cpu_cycles_per_word : t -> float
(** CPU cycles per streamed 32-bit word. *)
