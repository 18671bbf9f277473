(** IR printing.

    Two renderings are provided:

    - {!to_generic}: MLIR's "generic operation form"
      ([%0 = "arith.addf"(%1, %2) : (f32, f32) -> (f32)]), which
      {!Parser_ir} can parse back (round-trip property).
    - {!to_pretty}: a human-oriented form with custom syntax for the
      common dialects, resembling the paper's figures (not parseable). *)

val to_generic : Ir.op -> string
(** Print an op (typically a [builtin.module]) in generic form. *)

val to_pretty : Ir.op -> string
(** Print with per-dialect sugar ([func.func], [scf.for],
    [arith.constant], [memref.*], [accel.*], [linalg.generic] traits). *)

