(** IR verification.

    One pre-order walk checks, at each op: its operands against the
    values visible there, then the per-op check of its dialect
    ([func], [arith], [memref], [scf], [linalg] or [accel], chosen by
    one static match on the op name; an op of any other name has none),
    then its regions; its results become visible after it. The answer
    depends on the module alone: there is nothing to register first.

    Definitions are scoped by block. A block's arguments and the
    results of the ops in its body are visible in the rest of the block
    and in the regions nested there, and nowhere else: a loop body's
    value read after the loop, or another function's value, is a use of
    an undefined value. Every value id is defined once in the whole
    module, even across blocks whose scopes have ended. Each
    [!accel.token] result is consumed exactly once, counted when its
    scope ends.

    A valid module is verified without allocating, beyond what the
    per-op verifiers allocate. The scratch marks are per domain, indexed
    by value id and sized by {!Ir.vid_bound} of the root. *)

type error = {
  failing_op : string;  (** name of the op the check failed on *)
  reason : string;  (** what was wrong, without the op prefix *)
}

val error_to_string : error -> string
(** ["op %s: %s"] — the historical flat message format. *)

val verify_structured : Ir.op -> (unit, error) result
(** Verify an op tree. Reports the first SSA error in walk order, else
    a token error, else the first per-op verifier error in pre-order (a
    per-op verifier raising [Invalid_argument] counts as its error).
    Reports the failing op separately from the reason, so callers (e.g.
    {!Pass.run_pipeline}) can attach the offending op to their own
    diagnostics. Not reentrant: a per-op verifier must not call it. *)

val verify : Ir.op -> (unit, string) result
(** As {!verify_structured}, flattened with {!error_to_string}. *)

