(** The [arith] dialect: constants and scalar arithmetic. *)

val constant_index : Builder.t -> int -> Ir.value
val constant_i32 : Builder.t -> int -> Ir.value
val constant_f32 : Builder.t -> float -> Ir.value

val addi : Builder.t -> Ir.value -> Ir.value -> Ir.value
val subi : Builder.t -> Ir.value -> Ir.value -> Ir.value
val muli : Builder.t -> Ir.value -> Ir.value -> Ir.value
(** Integer/index ops; both operands must share the operand type. *)

val addf : Builder.t -> Ir.value -> Ir.value -> Ir.value
val mulf : Builder.t -> Ir.value -> Ir.value -> Ir.value

val index_cast : Builder.t -> Ir.value -> Ir.value
(** [arith.index_cast]: index -> i32 (or i32 -> index). *)

val const_value : Ir.op -> Attribute.t
(** The [value] attribute of an [arith.constant]. *)

(** {1 Verification} The per-op checks {!Verifier} reaches by op name. *)

val verify_constant : Ir.op -> (unit, string) result

val verify_binop : Ir.op -> (unit, string) result
(** [arith.addi], [subi], [muli], [addf] and [mulf]. *)
