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
    named, capacity-checked store that holds at most one tagged tensor
    (a weight slice, a resident activation image). The driver that
    programs the device keeps the region in sync with the loads it
    issues: {!region_holds} means "the device already holds this
    tensor, the transfer can be skipped", and {!region_replace} records
    a new tenant, displacing the old one. *)

type region = {
  rg_name : string;
  rg_capacity_words : int;
  mutable rg_tag : string option;  (** the tenant, e.g. ["w12/f3"] *)
}

val make_region : name:string -> capacity_words:int -> region
(** An empty region. Raises [Invalid_argument] on a non-positive
    capacity. *)

val region_holds : region -> tag:string -> bool
(** Whether [tag] is the current tenant. *)

val region_replace : region -> tag:string -> words:int -> (unit, string) result
(** Make [tag] the tenant. [Error] when [words] exceeds the capacity
    (capacity-exactly-full succeeds); a rejected replace keeps the
    current tenant. *)

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

type meter = { mutable accel_cycles : float }
(** Where a device reports the accelerator cycles of a transaction. A
    flat float record: a float returned from a closure would be boxed
    on every transaction. *)

type t = {
  device_name : string;
  consume : Axi_word.window -> meter -> unit;
      (** Process one inbound transaction, adding the accelerator
          cycles of any compute it triggers to [meter.accel_cycles] in
          the order they are computed. Raises [Failure] on words the
          device's ISA cannot decode. The window is over the DMA
          engine's live input region and is valid only during this
          call: decode from it, never keep it. Allocates nothing. *)
  drain : int -> float array;
      (** Remove [n] elements from the output FIFO as a fresh array.
          Raises [Failure] when fewer are available (host/driver
          protocol bug). *)
  drain_into : float array -> int -> unit;
      (** [drain_into dst n] is [drain n] into [dst.(0 .. n-1)] instead
          of a fresh array. [dst] belongs to the caller (the DMA
          engine's blocking-receive region): the device writes it only
          during this call and keeps no reference to it. *)
  available : unit -> int;  (** queued output elements *)
  reset_device : unit -> unit;
  regions : region list;
      (** Residency regions, empty for devices without host-managed
          buffer reuse (the matmul engines: every tile load overwrites
          the previous one by construction). *)
}

val of_fifo :
  name:string ->
  who:string ->
  consume:(Axi_word.window -> meter -> unit) ->
  reset_device:(unit -> unit) ->
  regions:region list ->
  Fifo.t ->
  t
(** A device whose output is the FIFO [out]: [drain], [drain_into] and
    [available] read it, and a drain of more than is queued raises
    [Failure "<who>: host requested N output words, M available"]. *)

val find_region : t -> string -> region option
