(** The compile knobs of the AXI4MLIR pipeline (Fig. 4), declared once:
    {!Match_annotate.pass} reads [flow], [tiles], [cpu_tiling] and
    [double_buffer], {!Pipeline} picks its passes from the rest, and
    {!Axi4mlir.codegen_options} is this record. *)

type t = {
  flow : string option;  (** override the config's selected flow *)
  tiles : int list option;  (** flexible-engine tile override *)
  cpu_tiling : bool;  (** add the cache-hierarchy tiling level *)
  copy_specialization : bool;
      (** apply the Sec. IV-B strided-copy optimisation (Fig. 12b);
          disabling it reproduces the bottlenecked Fig. 12a codegen *)
  coalesce_transfers : bool;
      (** Sec. V: merge back-to-back send chains into one DMA transaction *)
  double_buffer : bool;  (** Sec. V: ping-pong asynchronous input transfers *)
  to_runtime_calls : bool;
      (** lower the [accel] dialect to runtime library calls; when false,
          compilation stops at the accel dialect (Fig. 6b-style IR) *)
}

val default : t
(** The config's own flow and tiles, CPU tiling, copy specialisation and
    runtime calls on; coalescing and double buffering off. *)
