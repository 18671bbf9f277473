(** The [memref] dialect: buffer allocation, strided subviews, and
    element access. (Named [Memref_d] to avoid clashing with the
    [Ty.memref] payload type.) *)

val alloc : Builder.t -> Ty.t -> Ir.value
(** [memref.alloc] of a memref type with identity layout. *)

val subview :
  Builder.t -> Ir.value -> offsets:Ir.value list -> sizes:int list -> Ir.value
(** [memref.subview %src[%o0, %o1][s0, s1][1, 1]]: dynamic offsets
    (one SSA index per dimension), static sizes, unit steps. The result
    type has the source strides and a dynamic offset. *)

val load : Builder.t -> Ir.value -> Ir.value list -> Ir.value
(** [memref.load %m[%i, %j]]; result is the element type. *)

val store : Builder.t -> Ir.value -> Ir.value -> Ir.value list -> unit
(** [store b %value %m indices]. *)

val dim_size : Ir.value -> int -> int
(** Static extent of dimension [d] of a memref-typed value. *)

(** {1 Verification} The per-op checks {!Verifier} reaches by op name. *)

val verify_alloc : Ir.op -> (unit, string) result
val verify_subview : Ir.op -> (unit, string) result
val verify_load : Ir.op -> (unit, string) result
val verify_store : Ir.op -> (unit, string) result
