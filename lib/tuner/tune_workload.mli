(** Tuning workloads: the problems the autotuner optimises a
    configuration for.

    A workload is a single kernel shape (one matmul or one Conv2D
    layer); whole-model workloads ([resnet18], [tinybert]) expand into
    a list of named per-layer workloads that are tuned independently —
    the per-layer best-config table is exactly what a compiler driving
    a multi-layer model needs. *)

type t =
  | Matmul of { m : int; n : int; k : int }
  | Conv of { ic : int; ih : int; iw : int; oc : int; fhw : int; stride : int }

type named = { wl_label : string; wl_workload : t }

val dims : t -> int list
(** Canonical dimension list: [[m; n; k]] for matmul,
    [[ic; ih; iw; oc; fhw; stride]] for conv. Part of the tune-cache
    key. *)

val to_string : t -> string

val is_conv : t -> bool

val macs : t -> int
(** Multiply-accumulates of the workload (for throughput reporting). *)

val resnet18_layers : ?rows:int -> unit -> named list
(** The eleven ResNet-18 convolution layers as row-sampled proxies
    (default [rows = 2] output rows at full output width): per-row work
    is homogeneous, so the config ranking on the proxy matches the full
    layer while tuning stays interactive. *)

val tinybert_layers : ?batch:int -> ?seq:int -> unit -> named list
(** The distinct TinyBERT MatMul shapes (default batch 1, seq 128),
    padded to the v4 granularity 16 as the accelerated path runs
    them. *)

val of_spec : string -> (named list, string) result
(** Parse a CLI workload spec:
    - ["matmul:M,N,K"]
    - ["conv:IC,IHW,OC,FHW"] or ["conv:IC,IHW,OC,FHW,STRIDE"]
    - ["resnet18"] (the row-sampled layer list)
    - ["tinybert"] (the padded MatMul shapes)
    - ["resnet18/<label>"] (a single layer, e.g.
      ["resnet18/56_64_3_64_1"])
    [Error] names the offending spec and the accepted forms. *)
