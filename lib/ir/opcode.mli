(** The [opcode_map] and [opcode_flow] attributes (paper Sec. III-C,
    Figs. 7 and 8).

    An {e opcode} names a sequence of {e actions} — memory operations on
    the DMA region that drive the accelerator: sending an instruction
    literal, sending/receiving tiles of a [linalg.generic] argument, or
    sending tile dimensions / loop indices for runtime-configurable
    accelerators.

    An {e opcode flow} arranges opcodes into nested scopes; each scope
    level maps to one loop-nest level of the tiled algorithm, so the flow
    expresses which data structure stays {e stationary} (hoisted out of
    inner loops). *)

type action =
  | Send of int  (** [send(n)]: transmit the current tile of argument [n] *)
  | Send_literal of int  (** [send_literal(0x22)]: transmit an opcode word *)
  | Send_dim of int * int
      (** [send_dim(n, d)]: transmit dimension [d] of argument [n]'s tile *)
  | Send_idx of int * int
      (** [send_idx(n, d)]: transmit the current tile index of argument
          [n] along dimension [d] *)
  | Recv of int  (** [recv(n)]: receive the tile of argument [n] *)

type entry = { key : string; actions : action list }

type map = entry list
(** Fig. 7: a dictionary from opcode identifiers to action lists. *)

type flow_elem =
  | Op of string  (** reference to an opcode key *)
  | Scope of flow_elem list  (** parenthesised sub-flow = inner loop nest *)

type flow = flow_elem list
(** Fig. 8: the (top-level) flow expression. The flow
    [(sA (sB cC rC))] is [[Scope [Op "sA"; Scope [Op "sB"; ...]]]]. *)

(** {1 Parsing and printing} *)

exception Syntax_error of string
(** The {!Scanner.Error} every hand-written parser raises:
    ["line L, column C: ..."]. *)

val parse_map : string -> map
(** Parse the Fig. 7 concrete syntax, e.g.
    ["opcode_map<sA = [send_literal(0x22), send(0)], reset = [send_literal(0xFF)]>"].
    The leading ["opcode_map<"]/trailing [">"] wrapper is optional.
    Raises {!Syntax_error}. *)

val parse_flow : string -> flow
(** Parse the Fig. 8 concrete syntax, e.g. ["opcode_flow<(sA (sB cC rC))>"].
    The wrapper is optional. Raises {!Syntax_error}. *)

val scan_map : Scanner.t -> map
(** Parse a map's payload in place, from just after its ['<'] through
    its ['>'] (the textual IR's [opcode_map<...>] attribute). *)

val scan_flow : Scanner.t -> flow
(** As {!scan_map}, for a flow. *)

val map_to_string : map -> string
(** Round-trippable rendering including the [opcode_map<...>] wrapper.
    Literals are printed in hexadecimal, as in the paper. *)

val flow_to_string : flow -> string
(** Round-trippable rendering including the [opcode_flow<...>] wrapper. *)

val action_to_string : action -> string

(** {1 Validation} *)

val validate_map : n_args:int -> map -> (unit, string) result
(** Keys must be distinct and non-empty; argument indices must lie in
    [0 .. n_args-1]; literals must fit an unsigned 32-bit word;
    dimension indices must be non-negative. *)

val validate_flow : map -> flow -> (unit, string) result
(** Every referenced opcode must exist in the map; scopes must be
    non-empty; an opcode must not appear twice in the same flow. *)

(** {1 Queries} *)

val find : map -> string -> entry option

val flow_depth : flow -> int
(** Maximum scope nesting of the flow; [ (sA (sB cC rC)) ] has depth 2.
    A flow with no scopes at all has depth 0 (treated as depth 1 — one
    implicit scope — by {!flow_placements}). *)

val flow_placements : flow -> (string * int) list
(** Each opcode paired with its 1-based scope depth, in source order.
    [(sA (sB cC rC))] gives [[("sA", 1); ("sB", 2); ("cC", 2); ("rC", 2)]]. *)

val flow_opcodes : flow -> string list
(** Opcode keys in source order. *)

val actions_of_flow : map -> flow -> action list
(** Flatten the flow into the action sequence executed per full
    traversal, ignoring scoping (useful for transfer-volume analysis).
    Unknown keys are skipped. *)

val sends_of_actions : action list -> int list
(** Argument indices sent by an action list (in order). *)

val recvs_of_actions : action list -> int list
(** Argument indices received by an action list (in order). *)

val equal_map : map -> map -> bool
val equal_flow : flow -> flow -> bool
