(** The [func] dialect: functions, calls and returns. *)

val func_op :
  Ir.ctx ->
  name:string ->
  args:Ty.t list ->
  ?results:Ty.t list ->
  (Builder.t -> Ir.value list -> unit) ->
  Ir.op
(** Build a [func.func] whose values are minted from the context of the
    module being built. The callback receives a fresh builder on that
    context and the block-argument values; it must emit a terminating
    {!return_op} itself (the verifier checks this). *)

val return_op : Builder.t -> Ir.value list -> unit
(** Emit [func.return]. *)

val call :
  Builder.t -> callee:string -> ?results:Ty.t list -> Ir.value list -> Ir.value list
(** Emit [func.call @callee(...)] and return the result values. *)

val name_of : Ir.op -> string
(** [sym_name] of a [func.func]. *)

val body_of : Ir.op -> Ir.block
(** Entry (single) block of a [func.func]. *)

val find_func : Ir.op -> string -> Ir.op option
(** Look up a function by name in a [builtin.module]. *)

val is_func : Ir.op -> bool

(** {1 Verification} The per-op checks {!Verifier} reaches by op name. *)

val verify_func : Ir.op -> (unit, string) result
val verify_call : Ir.op -> (unit, string) result
