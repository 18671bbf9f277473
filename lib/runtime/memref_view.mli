(** A runtime memref descriptor: the simulator-side analogue of the C
    struct in Fig. 3 of the paper — a base buffer plus offset, sizes
    and strides (in elements).

    Views are what the DMA library copies to/from, what manual drivers
    slice, and what the interpreter binds IR memref values to. *)

type t = {
  buf : Sim_memory.buffer;
  offset : int;  (** element offset of the view's origin *)
  shape : int list;
  strides : int list;  (** elements *)
}

val of_buffer : Sim_memory.buffer -> int list -> t
(** Identity-layout view of an entire buffer with the given shape.
    Raises [Invalid_argument] if the element counts disagree. *)

val rank : t -> int
val num_elements : t -> int

val subview : t -> offsets:int list -> sizes:int list -> t
(** Slice with unit steps; strides are inherited. Bounds-checked. *)

val linear_index : t -> int list -> int
(** Buffer element index of a coordinate. *)

val get : t -> int list -> float
val set : t -> int list -> float -> unit

val iter_linear : t -> (int -> unit) -> unit
(** Visit the buffer element index of every view element in row-major
    logical order. *)

val iter_runs : t -> (int -> int -> unit) -> unit
(** [iter_runs t f] calls [f start len] for each maximal contiguous run
    (see {!contiguous_run}) in row-major logical order: the run's
    elements are buffer indices [start .. start+len-1]. Every run has
    length [contiguous_run t]; {!iter_linear} visits the same indices
    one by one. *)

val contiguous_run : t -> int
(** Length of the maximal contiguous run of elements at the end of the
    dimension list: the number of logical elements that are physically
    adjacent, e.g. a [4x4] view of a row-major [128x128] buffer has
    run 4; an identity-layout view has run [num_elements]; a view with
    innermost stride <> 1 has run 1. This is what decides whether the
    paper's specialised [memcpy] copy (Sec. IV-B) pays off. *)

val to_array : t -> float array
(** Copy out in row-major order (no cost accounting; for tests). *)

val fill_from : t -> float array -> unit
(** Copy in row-major order (no cost accounting; for tests/setup). *)
