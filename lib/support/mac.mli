(** The one matrix multiply-accumulate kernel, shared by the matmul
    engine model ({!Accel_matmul}) and the functional oracle ([Gold]). *)

val matmul_acc :
  m:int -> n:int -> k:int -> float array -> float array -> float array -> unit
(** [matmul_acc ~m ~n ~k a b c] does [C += A x B] over the row-major
    prefixes [a.(0 .. m*k-1)], [b.(0 .. k*n-1)] and [c.(0 .. m*n-1)];
    elements past a prefix are neither read nor written. Each C element
    adds its products in k order, so the result has the bits of the
    dot-product form. Raises [Invalid_argument] on a negative dimension
    or an array shorter than its prefix. *)
