(** IR verification.

    Structural SSA checks (definitions dominate uses, unique
    definitions) plus a registry of per-operation verifiers that dialect
    libraries populate for their ops. *)

type error = {
  failing_op : string;  (** name of the op the check failed on *)
  reason : string;  (** what was wrong, without the op prefix *)
}

val error_to_string : error -> string
(** ["op %s: %s"] — the historical flat message format. *)

val register_op_verifier : string -> (Ir.op -> (unit, string) result) -> unit
(** Register a verifier for an op name. Registering twice replaces the
    previous verifier (used by tests). *)

val verify_structured : Ir.op -> (unit, error) result
(** Verify an op tree: SSA structure first, then every registered
    per-op verifier (pre-order). Reports the failing op separately from
    the reason, so callers (e.g. {!Pass.run_pipeline}) can attach the
    offending op to their own diagnostics. *)

val verify : Ir.op -> (unit, string) result
(** As {!verify_structured}, flattened with {!error_to_string}. *)

