(** The simulated main memory: named f32 buffers placed in a flat
    byte-address space by a bump allocator, so every element access has
    a concrete address for the cache simulator.

    Buffers model the paper's host-side tensors (the [memref]
    storage). The DMA regions live in a separate uncached address
    range managed by {!Dma_engine}. *)

type buffer = {
  base : int;  (** byte address of element 0 *)
  data : float array;
  label : string;
}

type t

val capacity_bytes : int
(** The simulated DDR: 512 MiB, the PYNQ-Z2's. *)

val create : unit -> t

val alloc : t -> label:string -> int -> buffer
(** Allocate [n] f32 elements, 64-byte aligned, zero-initialised.
    Raises [Failure] naming {!capacity_bytes} when the buffers
    allocated so far and this one do not fit in it, and
    [Invalid_argument] on a negative [n]. *)

val addr_of : buffer -> int -> int
(** Byte address of element [i] (bounds-checked). *)

val get : buffer -> int -> float
val set : buffer -> int -> float -> unit

val footprint_bytes : t -> int
(** Total bytes allocated so far. *)
