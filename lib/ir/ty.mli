(** Types of the mini-MLIR IR.

    The subset needed by AXI4MLIR: scalar element types, statically-shaped
    memrefs with strided layouts (the C struct of Fig. 3 of the paper,
    restricted to static sizes/strides/offset), and function types. *)

type dtype = F32 | F64 | I1 | I8 | I32 | I64 | Index

type memref = {
  shape : int list;  (** one extent per dimension; rank = length *)
  elem : dtype;
  offset : int;  (** static offset in elements, or {!dynamic_offset} *)
  strides : int list;  (** one stride per dimension, in elements *)
}

type t =
  | Scalar of dtype
  | Memref of memref
  | Func of t list * t list  (** argument types, result types *)
  | Token
      (** [!accel.token]: the handle returned by a non-blocking
          [accel.start_send]/[accel.start_recv] and consumed (exactly
          once) by [accel.wait]. *)

val f32 : t
val f64 : t
val i1 : t
val i8 : t
val i32 : t
val i64 : t
val index : t

val token : t
(** [!accel.token], see {!Token}. *)

val scalar : dtype -> t
(** The shared [Scalar d]: one of the values above. *)

val dtype_size_bytes : dtype -> int
(** Storage size of one element. [Index] is modelled as 8 bytes. *)

val dynamic_offset : int
(** Sentinel for a loop-variant subview offset (printed as [?]). *)

val dynamic_subview_type : memref -> sizes:int list -> t
(** Type of a subview with dynamic (SSA-value) offsets and the given
    static sizes: shape becomes [sizes], strides are inherited, offset
    becomes {!dynamic_offset}. *)

val identity_strides : int list -> int list
(** Row-major strides for a shape, e.g. [[4; 4] -> [4; 1]]. *)

val memref : ?offset:int -> ?strides:int list -> int list -> dtype -> t
(** Build a memref type; strides default to row-major, offset to 0. *)

val memref_of : t -> memref
(** Project the memref payload. Raises [Invalid_argument] on other types. *)

val rank : memref -> int
val num_elements : memref -> int

val is_identity_layout : memref -> bool
(** True when offset is 0 and strides are exactly row-major. *)

val is_contiguous_innermost : memref -> bool
(** True when the last-dimension stride is 1 (rank 0 counts as true):
    the precondition for the paper's specialised [memcpy] copy
    (Sec. IV-B). *)

val subview_type : memref -> offsets:int list -> sizes:int list -> t
(** Type of a static subview taking [sizes] elements starting at
    [offsets] (unit step): shape becomes [sizes], strides are inherited,
    offset is accumulated. Raises [Invalid_argument] when ranks mismatch
    or the subview exceeds the source extents. *)

val dtype_to_string : dtype -> string
val to_string : t -> string
(** MLIR-like rendering, e.g.
    [memref<4x4xf32, strided<[80, 1], offset: 42>>]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text. *)

val equal : t -> t -> bool
val dtype_of_string : string -> dtype option
