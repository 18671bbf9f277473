(** Small general-purpose helpers shared across the AXI4MLIR libraries. *)

val round_up : int -> multiple:int -> int
(** [round_up n ~multiple] is the smallest multiple of [multiple] that is
    [>= n]. [multiple] must be positive. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded towards positive infinity.
    [b] must be positive and [a] non-negative. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is [true] iff [n] is a positive power of two. *)

val log2 : int -> int
(** [log2 n] for a positive power of two [n]. Raises [Invalid_argument]
    otherwise. *)

val divisors : int -> int list
(** Positive divisors of [n > 0], in increasing order. *)

val range : int -> int list
(** [range n] is [[0; 1; ...; n-1]]. *)

val product : int list -> int
(** Product of a list of integers; [1] on the empty list. *)

val list_index : ('a -> bool) -> 'a list -> int option
(** Index of the first element satisfying the predicate. *)

val list_take : int -> 'a list -> 'a list
(** First [n] elements (all of them if the list is shorter). *)

val list_drop : int -> 'a list -> 'a list
(** All but the first [n] elements ([[]] if the list is shorter). *)

val string_of_list : ?sep:string -> ('a -> string) -> 'a list -> string
(** Render a list with a separator (default [", "]). *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** Append the items separated by [", "]. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n] without allocating the string. *)

val permutations : 'a list -> 'a list list
(** All permutations of a (short) list. *)

val geomean : float list -> float
(** Geometric mean; [nan] on the empty list. *)

val mean : float list -> float
(** Arithmetic mean; [nan] on the empty list. *)

val fmax_list : float list -> float
(** Maximum of a non-empty float list. Raises [Invalid_argument] on []. *)

val splitmix64_gamma : int64
(** The splitmix64 state increment (the 64-bit golden ratio). *)

val splitmix64_mix : int64 -> int64
(** The splitmix64 output mixer: one draw of a stream is
    [splitmix64_mix state] after adding {!splitmix64_gamma} to
    [state]. Shared by the fuzzer's PRNG and the tuner's tie-break
    stream. *)
