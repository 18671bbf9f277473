(** Optimization remarks: structured feedback from transform passes,
    modelled on LLVM's [-Rpass] / [--pass-remarks] machinery.

    The Haris et al. 2024 follow-up ("Data Transfer Optimizations for
    Host-CPU and Accelerators in AXI4MLIR") motivates exactly this: the
    compiler should {e tell the user} which transfers it hoisted, which
    configurations it could not apply and why, so tuning an accelerator
    config is not guess-and-rerun. Passes emit three remark kinds:

    - {!Applied}: an optimisation fired ("hoisted A-tile send out of
      the k-loop, saved N words per iteration");
    - {!Missed}: an optimisation was applicable in principle but could
      not fire, with the blocking reason ("tile 33 does not divide
      extent 128; op not offloaded");
    - {!Analysis}: neutral facts a tuner wants ("operand footprint
      1.5 MiB exceeds the 512 KiB LLC; CPU-tiling the i-loop").

    Remarks accumulate in a collector ({!default} for all built-in
    passes), disabled by default with the same zero-cost discipline as
    {!Trace} and {!Metrics}. They render as LLVM-style YAML-ish
    documents ([axi4mlir_opt --remarks]) and serialise to JSON for the
    metrics artifact written next to a run's trace. *)

type arg = Str of string | Int of int | Num of float | Bool of bool

type kind = Applied | Missed | Analysis

type t = {
  r_kind : kind;
  r_pass : string;  (** emitting pass, e.g. ["match-and-annotate"] *)
  r_name : string;  (** stable remark identifier, e.g. ["hoist-transfer"] *)
  r_loc : string;  (** op location: the op's name, e.g. ["linalg.matmul"] *)
  r_message : string;
  r_args : (string * arg) list;  (** key-value payload, in emission order *)
}

val kind_to_string : kind -> string

type collector

val create : unit -> collector
(** A fresh, disabled collector. *)

val default : collector
(** The shared collector all built-in passes emit into. *)

val enable : ?col:collector -> unit -> unit
(** Start collecting. Discards previously collected remarks. *)

val disable : ?col:collector -> unit -> unit
val enabled : ?col:collector -> unit -> bool

val clear : ?col:collector -> unit -> unit
(** Drop collected remarks, keeping the enabled flag. *)

val emit :
  ?col:collector ->
  kind:kind ->
  pass:string ->
  name:string ->
  ?loc:string ->
  ?args:(string * arg) list ->
  string ->
  unit
(** Record one remark (no-op when disabled). [loc] defaults to ["?"]. *)

val all : ?col:collector -> unit -> t list
(** Collected remarks in emission order. Empty when disabled. *)

val count : ?col:collector -> kind -> int

(** {1 Rendering} *)

val render : t -> string
(** One LLVM-style YAML-ish document:
    {v
--- !Applied
Pass:    match-and-annotate
Name:    hoist-transfer
Loc:     linalg.matmul
Message: hoisted sA out of the innermost loop
Args:
  - opcode: sA
  - words_per_call: 16
...
    v} *)

val render_all : ?col:collector -> unit -> string
(** Every collected remark, concatenated; a placeholder line when none
    were collected. *)

val to_json : t -> Json.t

val all_to_json : ?col:collector -> unit -> Json.t
(** A JSON array of collected remarks. *)
