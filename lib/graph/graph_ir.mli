(** Whole-model graph IR.

    A graph is a topologically ordered list of layer invocations
    (nodes) over a flat tensor table. Tensors are either model inputs,
    weights (constant across images of a batch) or activations
    (produced by exactly one node). Edges are implicit: node [nd] reads
    the tensors in [nd_args] and writes [nd_out], so a tensor id shared
    between one node's [nd_out] and another's [nd_args] is a dataflow
    edge — the thing the residency scheduler reasons about when it
    decides to keep a producer's output resident on the accelerator for
    its consumer.

    Ops are the minimal set the ResNet-18 and TinyBERT proxies need:
    [Conv] and [Matmul] are offloaded to the simulated engines;
    [Residual_add], [Resize] (shape glue between stages under valid
    padding) and [Transpose] run on the host. A graph targets exactly
    one engine kind — see {!engine_kind}. *)

type tensor_kind = Input | Weights | Activation

type tensor = {
  tn_id : int;
  tn_name : string;
  tn_kind : tensor_kind;
  tn_shape : int list;  (** conv activations [[c; h; w]], conv weights
                            [[oc; ic; fh; fw]], matmul [[rows; cols]] *)
}

type op =
  | Conv of { stride : int }
      (** valid padding, square filters; args = [[input; weights]] *)
  | Matmul  (** args = [[a; b]], [a : m*k], [b : k*n] *)
  | Residual_add
      (** args = [[x; y]]; output takes [x]'s shape, [y] is
          centre-cropped / zero-padded to match (host op) *)
  | Resize  (** rank-3 centre crop / zero pad to the output shape (host op) *)
  | Transpose  (** rank-2 transpose (host op) *)

type node = {
  nd_id : int;  (** equals the node's index in [g_nodes] *)
  nd_name : string;
  nd_op : op;
  nd_args : int list;
  nd_out : int;
}

type t = {
  g_name : string;
  g_tensors : tensor array;
  g_nodes : node array;  (** topological order; [validate] checks it *)
  g_outputs : int list;  (** activation ids the host must read back *)
}

val kind_to_string : tensor_kind -> string
val op_name : op -> string

val is_accel : op -> bool
(** Whether the op is offloaded to an accelerator engine. *)

val tensor : t -> int -> tensor
val words : tensor -> int

val consumers : t -> int -> node list
(** Nodes reading tensor [tid], in node order. *)

type conv_dims = {
  cd_ic : int;
  cd_ih : int;
  cd_iw : int;
  cd_oc : int;
  cd_fhw : int;
  cd_stride : int;
  cd_oh : int;
  cd_ow : int;
}

val conv_dims : t -> node -> conv_dims
(** Raises on non-conv nodes. *)

val matmul_dims : t -> node -> int * int * int
(** [(m, n, k)]; raises on non-matmul nodes. *)

val node_macs : t -> node -> int
val macs : t -> int

val node_workload : t -> node -> Tune_workload.t option
(** The node as a tuning workload ([None] for host ops) — the bridge
    into {!Heuristics} and the serving oracle's cost proxies. *)

val engine_kind : t -> ([ `Conv | `Matmul ], string) result
(** The single engine this graph targets; [Error] for mixed or
    engine-free graphs. *)

val conv_out : int -> fhw:int -> stride:int -> int

val validate : t -> (unit, string) result
(** Structural and shape checking: ids in range and in topological
    order, activations produced exactly once before use, per-op shape
    rules, outputs produced. Builders run this; executors may assume
    it. *)

val to_json : t -> Json.t
(** Stable structural dump, embedded in the [axi4mlir-graph-v1]
    artifact. *)
