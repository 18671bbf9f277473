(** Common interface between the DMA engine and accelerator models,
    plus the buffer-residency model the whole-model graph scheduler
    plans against.

    A device decodes each inbound transaction from an
    {!Axi_word.window} over the engine's live input region, never a
    copy, and must not keep the window past {!t.consume}. Its output
    goes through an unboxed {!Fifo} that [drain] takes from with one
    blit.

    {1 Residency regions}

    A {!region} is the host-visible contract of one on-chip buffer: a
    named capacity-accounted store of tagged tensors (a weight slice, a
    resident activation image). The driver that programs the device is
    responsible for keeping the region in sync with the loads it
    issues — a {!region_lookup} hit means "the device already holds
    this tensor, the transfer can be skipped"; an install that
    overwrites an existing tag invalidates the old copy.

    Allocation is a ring over the capacity: installs claim the next
    contiguous range (wrapping to offset 0 when the tail is too
    short) and evict every overlapped entry in installation order —
    the deterministic eviction ordering the residency tests pin.
    Devices whose hardware holds a single tensor at a time (the conv
    engine's weight slice and activation image) use {!region_replace},
    which displaces everything; the multi-entry ring is the general
    model richer devices can adopt. *)

type entry = {
  en_tag : string;  (** tensor identity, e.g. ["w12/f3"] *)
  en_words : int;
  en_off : int;  (** word offset inside the region *)
  en_seq : int;  (** installation order (monotonic) *)
}

type region = {
  rg_name : string;
  rg_capacity_words : int;
  mutable rg_entries : entry list;
  mutable rg_next_off : int;  (** ring bump pointer *)
  mutable rg_seq : int;
  mutable rg_hits : int;  (** lookup hits (skipped transfers) *)
  mutable rg_misses : int;
  mutable rg_evictions : int;
}

val make_region : name:string -> capacity_words:int -> region
(** Raises [Invalid_argument] on a non-positive capacity. *)

val region_used : region -> int
(** Words currently resident. *)

val region_tags : region -> string list
(** Resident tags in installation order. *)

val region_lookup : region -> tag:string -> int option
(** The tag's word offset when resident ([Some] counts a hit,
    [None] a miss). *)

val region_install : region -> tag:string -> words:int -> (int * string list, string) result
(** Claim space for [tag]: returns its word offset and the evicted
    tags in installation order. Re-installing a resident tag
    invalidates the old copy first. [Error] when [words] exceeds the
    region capacity (capacity-exactly-full succeeds). *)

val region_replace : region -> tag:string -> words:int -> (int * string list, string) result
(** Single-tenant install: evict everything, then install [tag] at
    offset 0. Same capacity rule as {!region_install}. *)

val region_invalidate : region -> tag:string -> unit
val region_clear : region -> unit

(** {1 Output FIFOs} *)

(** An unboxed float FIFO: the devices' computed-but-unreleased and
    output queues. Elements move in and out by blits; a push or pop
    allocates nothing once the buffer has grown to the working size
    (only {!pop_array}'s result is fresh). *)
module Fifo : sig
  type t

  val create : unit -> t
  val length : t -> int
  val clear : t -> unit

  val push : t -> float -> unit

  val push_array : t -> float array -> int -> int -> unit
  (** [push_array f src pos n] appends [src.(pos .. pos+n-1)]. *)

  val pop_into : t -> float array -> int -> int -> unit
  (** [pop_into f dst pos n] removes the [n] oldest elements into
      [dst.(pos .. pos+n-1)]. Raises [Invalid_argument] when fewer are
      queued. *)

  val pop_array : t -> int -> float array
  (** Remove the [n] oldest elements as a fresh array. Raises
      [Invalid_argument] when fewer are queued. *)

  val transfer : t -> t -> unit
  (** [transfer src dst] appends all of [src] to [dst] and empties
      [src]. *)
end

(** {1 The device interface} *)

type t = {
  device_name : string;
  consume : Axi_word.window -> float;
      (** Process one inbound transaction; returns accelerator cycles
          spent on any compute the transaction triggered. Raises
          [Failure] on words the device's ISA cannot decode. The
          window is over the DMA engine's live input region and is
          valid only during this call: decode from it, never keep
          it. *)
  drain : int -> float array;
      (** Remove [n] elements from the output FIFO. Raises [Failure]
          when fewer are available (host/driver protocol bug). *)
  available : unit -> int;  (** queued output elements *)
  reset_device : unit -> unit;
  regions : region list;
      (** Residency regions, empty for devices without host-managed
          buffer reuse (the matmul engines: every tile load overwrites
          the previous one by construction). *)
}

val find_region : t -> string -> region option
