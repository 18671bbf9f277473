(** Operation attributes.

    Includes the standard scalar/aggregate attributes plus the AXI4MLIR
    extensions: affine maps (for [accel_dim], [permutation_map] and
    linalg [indexing_maps]) and the {!Opcode} map/flow attributes. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Type_attr of Ty.t
  | Ints of int list  (** dense integer array, e.g. static tile sizes *)
  | Strs of string list  (** e.g. [iterator_types] *)
  | Array of t list
  | Dict of (string * t) list
  | Affine of Affine_map.t
  | Opcode_map of Opcode.map
  | Opcode_flow of Opcode.flow

val to_string : t -> string
(** MLIR-flavoured rendering, round-trippable by the IR parser. *)

val add_to_buffer : Buffer.t -> t -> unit
(** [to_string], appended to a buffer; linear in the attribute's size
    at any nesting depth. *)

val equal : t -> t -> bool

(** {1 Typed projections}

    Raise [Invalid_argument] with the attribute's rendering on
    mismatch. *)

val get_int : t -> int
val get_str : t -> string
val get_ints : t -> int list
val get_strs : t -> string list
val get_affine : t -> Affine_map.t
val get_opcode_map : t -> Opcode.map
val get_opcode_flow : t -> Opcode.flow
val get_dict : t -> (string * t) list
val get_array : t -> t list
