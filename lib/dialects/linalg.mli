(** The [linalg] dialect: the [linalg.generic] structured operation and
    named-op builders for matrix multiplication and 2-D convolution.

    A [linalg.generic] (paper Fig. 2a) carries:
    - [indexing_maps]: one affine map per operand, from the iteration
      space to that operand's indices;
    - [iterator_types]: ["parallel"] or ["reduction"] per dimension;
    - a scalar kernel region whose block arguments are one element per
      operand, terminated by [linalg.yield] of the output elements.

    AXI4MLIR's trait extensions ([accel_dim], [opcode_map], ...) are
    attached to this op as additional attributes by the
    [Match_annotate] pass. *)

val parallel : string
val reduction : string

val generic :
  Builder.t ->
  indexing_maps:Affine_map.t list ->
  iterator_types:string list ->
  inputs:Ir.value list ->
  outputs:Ir.value list ->
  ?op_kind:string ->
  (Builder.t -> Ir.value list -> unit) ->
  Ir.op
(** Build and emit a [linalg.generic]. The kernel callback receives a
    builder on [b]'s context and one scalar block argument per operand
    (inputs then outputs), and must end by calling {!yield}. Returns
    the emitted op. [op_kind] is a convenience label recording the
    named op this generic was derived from (["matmul"],
    ["conv_2d_nchw_fchw"]). *)

val yield : Builder.t -> Ir.value list -> unit

val matmul : Builder.t -> a:Ir.value -> b:Ir.value -> c:Ir.value -> Ir.op
(** [C(m, n) += A(m, k) * B(k, n)] as a [linalg.generic] with the
    canonical maps [(m, n, k) -> (m, k) / (k, n) / (m, n)] and iterator
    types [parallel, parallel, reduction]. *)

val conv_2d_nchw_fchw :
  ?stride:int ->
  Builder.t ->
  input:Ir.value ->
  filter:Ir.value ->
  output:Ir.value ->
  Ir.op
(** [O(n, f, oh, ow) += I(n, c, s*oh + fh, s*ow + fw) * W(f, c, fh, fw)]
    over iteration space (n, f, oh, ow, c, fh, fw); [stride] s defaults
    to 1. *)

val conv_stride_of : Ir.op -> int option
(** The spatial stride of a conv-shaped generic ([Some 1] for the plain
    form); [None] if the op is not a conv generic. *)

(** {1 Accessors} *)

val is_generic : Ir.op -> bool
val indexing_maps : Ir.op -> Affine_map.t list
val iterator_types : Ir.op -> string list
val num_inputs : Ir.op -> int
val inputs : Ir.op -> Ir.value list
val outputs : Ir.op -> Ir.value list
val op_kind : Ir.op -> string option

val loop_ranges : Ir.op -> int list
(** Extent of each iteration-space dimension, recovered from operand
    shapes through the indexing maps. Raises [Invalid_argument] when a
    dimension cannot be inferred (never happens for maps built from
    projections of plain dims appearing at least once). *)

val verify_generic : Ir.op -> (unit, string) result
(** The [linalg.generic] check {!Verifier} dispatches to. *)
