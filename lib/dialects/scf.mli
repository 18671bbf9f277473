(** The [scf] dialect: structured control flow ([scf.for] loops). *)

val for_name : string
(** ["scf.for"] *)

val yield_name : string
(** ["scf.yield"] *)

val for_ :
  Builder.t ->
  lb:Ir.value ->
  ub:Ir.value ->
  step:Ir.value ->
  (Builder.t -> Ir.value -> unit) ->
  unit
(** Emit [scf.for %iv = %lb to %ub step %step { ... }]. The callback
    receives the induction variable; a terminating [scf.yield] is
    appended automatically. *)

val for_range :
  Builder.t -> lb:int -> ub:int -> step:int -> (Builder.t -> Ir.value -> unit) -> unit
(** {!for_} over constant bounds; emits the [arith.constant]s. *)

val induction_var : Ir.op -> Ir.value
(** The induction variable of an [scf.for]. *)

val loop_body : Ir.op -> Ir.op list
(** Body ops of an [scf.for], excluding the terminating [scf.yield]. *)

val verify_for : Ir.op -> (unit, string) result
(** The [scf.for] check {!Verifier} dispatches to. *)
