(** Core IR data structures: SSA values, operations with nested regions,
    blocks, and traversal helpers.

    This mirrors MLIR's meta-IR at the granularity AXI4MLIR needs:
    operations are uninterpreted records carrying a dialect-qualified
    name (["arith.addf"], ["accel.send"], ...), SSA operands/results,
    attributes and regions. Dialects (in [axi_dialects]) provide typed
    constructors and verifiers over this representation. *)

type value = private { vid : int; vty : Ty.t }
(** An SSA value. Identity is by [vid]; values are created only through
    {!fresh_value}. An id is unique within the context that minted it,
    so values of different modules must not be mixed. *)

type op = {
  name : string;  (** dialect-qualified operation name *)
  operands : value list;
  results : value list;
  attrs : (string * Attribute.t) list;
  regions : region list;
}

and block = { bargs : value list; body : op list }

and region = block list

type ctx
(** Mints one module's value ids, densely and in order. *)

val context : unit -> ctx
(** Ids from 0, for a new module. *)

val context_of : op -> ctx
(** Ids from {!vid_bound} of the op, for a pass that adds values to it. *)

val fresh_value : ctx -> Ty.t -> value

val op :
  ?operands:value list ->
  ?results:value list ->
  ?attrs:(string * Attribute.t) list ->
  ?regions:region list ->
  string ->
  op
(** Build an operation. *)

val block : ?args:value list -> op list -> block

(** {1 Attribute access} *)

val attr : op -> string -> Attribute.t option
val attr_exn : op -> string -> Attribute.t
(** Raises [Not_found_attr] (as [Invalid_argument]) with the op name and
    attribute key when missing. *)

val attr_or : op -> string -> Attribute.t -> Attribute.t
(** [attr_or o key default] is the attribute, or [default] when [o] has
    none. Unlike {!attr} (whose option is allocated per lookup), neither
    this nor {!attr_exn} allocates: they are what the interpreter uses
    on every executed op. *)

val set_attr : op -> string -> Attribute.t -> op
val remove_attr : op -> string -> op
val has_attr : op -> string -> bool

(** {1 Common projections} *)

val result : op -> value
(** Sole result. Raises [Invalid_argument] if the op does not have
    exactly one result. *)

val single_block : op -> block
(** The single block of the op's single region. Raises
    [Invalid_argument] otherwise. *)

(** {1 Traversal} *)

val fold : ('a -> op -> 'a) -> 'a -> op -> 'a
(** Pre-order fold over an op and every op nested in its regions. The
    traversal itself allocates nothing. *)

val walk : (op -> unit) -> op -> unit
(** Pre-order visit of an op and every op nested in its regions. *)

val map_nested : (op -> op) -> op -> op
(** Rebuild an op bottom-up: nested ops are transformed first, then the
    (region-updated) op itself is passed to the function. *)

val find_ops : (op -> bool) -> op -> op list
(** All (nested) ops satisfying the predicate, in pre-order. *)

val count_ops : (op -> bool) -> op -> int

val vid_bound : op -> int
(** 1 + the largest id defined or used in the op, so arrays indexed by
    [vid] are sized by it. Allocates nothing. *)

(** {1 Module and function helpers} *)

val module_op : op list -> op
(** Wrap top-level ops in a [builtin.module]. *)

val is_module : op -> bool
val module_body : op -> op list
(** Ops of a [builtin.module]. Raises [Invalid_argument] otherwise. *)

val with_module_body : op -> op list -> op
(** Replace the body of a module op. *)
