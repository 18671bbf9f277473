(** Reference lowering of [linalg.generic] to [scf] loop nests with
    scalar loads/stores — the "mlir_CPU" execution path and the
    functional oracle the accelerator paths are tested against.

    The loop order is the canonical dimension order (parallel and
    reduction dims interleaved as declared), i.e. no CPU-oriented
    tiling — matching the straight linalg-to-loops lowering the paper's
    CPU baseline uses. *)

val pass : Pass.t
(** Rewrites every [linalg.generic] in the module. *)
