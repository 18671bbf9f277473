(** An imperative op-list builder, the analogue of MLIR's [OpBuilder].

    Dialect constructor functions take a builder and append ops to the
    current insertion point; nested regions are built with {!nest}.
    A builder carries the {!Ir.ctx} of the module being built, and
    dialect constructors mint their values with {!fresh}. *)

type t

val create : Ir.ctx -> t
val ctx : t -> Ir.ctx
val fresh : t -> Ty.t -> Ir.value

val emit : t -> Ir.op -> unit
(** Append an op at the current insertion point. *)

val emit_result : t -> Ir.op -> Ir.value
(** Append and return its sole result. *)

val nest : t -> (unit -> unit) -> Ir.op list
(** [nest b f] runs [f] with the insertion point redirected into a fresh
    op list and returns the ops emitted by [f]. The previous insertion
    point is restored afterwards (also on exceptions). *)

val finish : t -> Ir.op list
(** The ops emitted at the top level, in order. The builder must not be
    inside a {!nest}. *)
