(** Platform descriptions: the SoC half of the co-design search.

    The paper fixes the platform and tunes the host code; "Platform-
    Aware FPGA System Architecture Generation based on MLIR" (Soldavini
    & Pilato) makes the platform itself a search dimension. A platform
    description is the machine-readable record of one point in that
    space: a list of accelerator {e instances} (which Table I matmul
    engine each slot carries, optionally with a tile-buffer capacity
    override), how many DMA channels the SoC ships, and the AXI beat
    width of the streaming bus. The serving simulator instantiates a
    platform directly ([axi4mlir_serve --platform FILE]) and the
    architecture search ({!Platform_search}) emits one as its winner.

    Every instance also carries the Sec. IV-D Conv2D engine as a fixed
    sidecar — conv layers run the same on every slot; only the matmul
    engine (and the buffer capacity) varies per instance.

    {2 The [axi4mlir-platform-v1] artifact}

    COMPATIBILITY RULE (same as [axi4mlir-graph-v1] /
    [axi4mlir-critpath-v1]): the schema is {e add-only}. New fields may
    be appended to any object; existing fields must never be renamed,
    re-typed, reordered or removed — a golden test under [test/golden/]
    pins a committed preset byte for byte. If a breaking change is ever
    unavoidable, bump the schema string. *)

val schema : string
(** ["axi4mlir-platform-v1"]. *)

type instance = {
  in_id : string;  (** unique instance id, e.g. ["acc0"] *)
  in_engine : string;
      (** a Table I matmul preset name (["v1_4"] ... ["v4_16"]); the
          conv sidecar is implicit and not named here *)
  in_capacity_elems : int option;
      (** per-operand tile-buffer capacity override, in elements
          (default: the engine preset's capacity) *)
}

type t = {
  pf_name : string;
  pf_instances : instance list;
  pf_dma_channels : int;  (** shared DMA channels, >= 1 *)
  pf_axi_beat_bytes : int;  (** AXI-S data beat width: 4, 8 or 16 *)
}

val beat_widths : int list
(** The valid [pf_axi_beat_bytes] values: [[4; 8; 16]]. 4 bytes (one
    f32 word per beat) is the paper's baseline bus. *)

val validate : t -> (unit, string) result
(** Full consistency check: non-empty name and instance list, unique
    non-empty instance ids, at least one DMA channel, a valid beat
    width, every engine a known Table I matmul preset, and every
    capacity override positive and accepted by
    {!Accel_config.validate} on the instantiated config. Errors are
    field-qualified ("platform.instances[1].engine: ..."). *)

val engine_config : instance -> (Accel_config.t, string) result
(** The fully-instantiated {!Accel_config.t} an instance describes:
    the preset with the capacity override applied. *)

val n_instances : t -> int

val instance_names : t -> string list
(** Per-instance engine preset names, in instance order — what
    {!Serve_report} renders in the accel table. *)

val homogeneous : ?name:string -> accels:int -> unit -> t
(** The platform equivalent to [axi4mlir_serve --accels K] today:
    [accels] v4_16 instances, one DMA channel per instance, the 4-byte
    baseline beat. A serve run over this platform is bit-identical to
    the [--accels K] run (gated by [bench/exp_platform]). *)

val presets : (string * t) list
(** Committed named platforms:
    - ["pynq-2xv4"]: two v4_16 instances, 2 channels, beat 4 — the
      homogeneous default rendered as a platform description;
    - ["hetero-v3v4"]: one v4_16 next to one v3_16 on 2 channels — the
      smallest genuinely heterogeneous SoC;
    - ["budget-4xv2"]: four v2_8 instances sharing 2 channels at beat
      8 — many cheap engines behind a fast narrow bus. *)

val find_preset : string -> (t, string) result
(** Look a preset up by name; an unknown name lists every valid
    preset. *)

val of_json_result : Json.t -> (t, string) result
(** Parse and {!validate} a platform description. Every malformed
    input — wrong schema string, missing or mistyped field, unknown
    engine, zero channels, duplicate instance ids, bad beat width —
    yields [Error] with a field-qualified message, never an
    exception. *)

val to_json : t -> Json.t
(** The [axi4mlir-platform-v1] document (see the compatibility
    rule). [of_json_result (to_json p) = Ok p] for every valid [p]. *)

val to_string : t -> string
(** One-line summary ("2x v4_16 + 1x v3_16, 2 ch, beat 8") for tables
    and remarks. *)

val write_file : string -> t -> unit
(** [Json.to_string ~indent:1] plus a trailing newline — the
    byte-stable rendering the golden test pins. *)

val load_file : string -> (t, string) result
(** Read and parse a platform file; [Error] (never an exception) on a
    missing file, unreadable JSON or a failed validation. *)
