(** Words on the AXI-Stream link, and the unboxed stream that carries
    them.

    Real hardware streams untyped 32-bit beats; the accelerator's
    decoder knows from its micro-ISA state whether the next beat is an
    instruction or data. We keep the distinction so decoder bugs
    surface as errors instead of silent float/int punning — but not as
    one boxed {!t} per word: a {!stream} is a [float array] plus one
    tag byte per word, and instruction ints are stored as floats,
    which is exact for every 32-bit word the link carries. Staging a
    data word is an unboxed store; staging a contiguous run is one
    [Array.blit] plus a tag fill.

    A device decodes a transaction through a {!window} over the live
    stream, never a copy. The window is only valid during the
    [Accel_device.t.consume] call it is passed to: the engine restages
    the region afterwards and moves the same window to its next
    transaction, so a device must not keep it. *)

type t =
  | Inst of int  (** an opcode literal, dimension, or index word *)
  | Data of float  (** one f32 element *)

(** {1 Streams} *)

type stream

val create_stream : int -> stream
(** [n] instruction words of value 0. *)

val length : stream -> int

val set : stream -> int -> t -> unit
(** Store one word at an index. *)

val set_inst : stream -> int -> int -> unit
(** Store an instruction word. *)

val gather_data :
  stream -> int -> float array -> int -> len:int -> count:int -> stride:int -> unit
(** [gather_data s i src j ~len ~count ~stride] stores [count] runs of
    [len] words back to back as data words from [i]: the [k]-th run is
    [src.(j + k*stride .. j + k*stride + len-1)]. *)

(** {1 Windows} *)

type window
(** A read cursor over [\[pos, pos + len)] of a stream. *)

val window : stream -> pos:int -> len:int -> window

val move_window : window -> pos:int -> len:int -> unit
(** Point a window at [\[pos, pos + len)] of its stream again, as
    after [window]: an engine keeps one window over its input region
    and moves it for each transaction instead of making a new one. *)

val of_words : t array -> window
(** A window over a fresh stream holding exactly these words (tests and
    tools that build transactions by hand). *)

val at_end : window -> bool

val next_inst : who:string -> window -> int
(** Read one instruction word. Raises [Failure]
    ["AXI stream desync: expected instruction, got data %g"] on a data
    word and ["<who>: truncated transaction"] past the end. *)

val read_data : who:string -> window -> float array -> int -> unit
(** [read_data ~who w dst n] reads [n] data words into [dst.(0 .. n-1)]
    with one blit after checking their tags. It fails where a
    word-by-word decode would have: on the first instruction word
    (["AXI stream desync: expected data, got instruction 0x%X"]), else
    ["<who>: truncated transaction"] when fewer than [n] words remain.
    The words before the failure are delivered. *)
