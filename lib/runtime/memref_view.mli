(** A runtime memref descriptor: the simulator-side analogue of the C
    struct in Fig. 3 of the paper — a base buffer plus offset, sizes
    and strides (in elements).

    Views are what the DMA library copies to/from, what manual drivers
    slice, and what the interpreter binds IR memref values to.

    Allocation: the shape and strides are the lists the IR types use,
    and one representation only. Every walk over them — {!subview_with},
    {!linear_index_with}, {!fold_runs}, {!contiguous_run} — is a closed
    recursion that allocates nothing; a subview allocates only the new
    view record. Callers on the hot path (the interpreter's view ops,
    the runtime library's copies) pass closed functions and their
    environments instead of closures, so a view op or a copy allocates
    nothing per call beyond that record. *)

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
(** Slice with unit steps; strides are inherited and [sizes] becomes the
    new shape as it is. Raises [Invalid_argument] on a rank mismatch or
    a slice outside an extent. *)

val subview_with : t -> ('env -> 'a -> int) -> 'env -> 'a list -> sizes:int list -> t
(** [subview_with t offset env xs ~sizes] is
    [subview t ~offsets:(List.map (offset env) xs) ~sizes] without
    building the list: each offset is computed as the walk reaches its
    dim, after the rank check. *)

val linear_index : t -> int list -> int
(** Buffer element index of a coordinate. Raises [Invalid_argument] on
    a rank mismatch or an index outside its extent. *)

val linear_index_with : t -> ('env -> 'a -> int) -> 'env -> 'a list -> int
(** [linear_index_with t index env xs] is
    [linear_index t (List.map (index env) xs)] without building the
    list. *)

val get : t -> int list -> float
val set : t -> int list -> float -> unit

val fold_runs :
  t -> ('a -> 'b -> t -> int -> int -> int -> int -> 'c -> 'c) -> 'a -> 'b -> 'c -> 'c
(** [fold_runs t f a b acc] visits each maximal contiguous run (see
    {!contiguous_run}) in row-major logical order, a row of runs per
    call, threading [acc]: [acc <- f a b t start len count stride acc]
    stands for the [count] runs of buffer indices
    [start + k*stride .. start + k*stride + len - 1], [k = 0 .. count-1],
    in that order, and the last [acc] is returned. A row is the
    innermost leading dim whose extent is not 1 (a fHW=1 conv patch
    [1 x iC x 1 x 1] is one row of [iC] runs of 1); a view with no such
    dim is one call with [count = 1]. Every run has length
    [contiguous_run t]; an empty view has none. With a closed [f] (one
    that captures nothing; [a] and [b] carry what it needs) and an
    immediate [acc], the walk allocates nothing at any rank. *)

val iter_runs : t -> (int -> int -> unit) -> unit
(** [iter_runs t f] calls [f start len] for each run, as {!fold_runs}.
    Allocates nothing beyond [f] itself. *)

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
