(** Set-associative LRU cache hierarchy simulator.

    Drives the [cache_references]/miss counters and the memory-access
    component of the cycle model. Levels are inclusive; a fill installs
    the line in every level. Write misses allocate (write-allocate,
    write-back; write-back traffic is not modelled).

    Each set is a segment of line numbers kept most recently used
    first: a hit moves its line to the front, a miss shifts the
    segment back one slot and installs the line at the front, so the
    victim is always the last slot. That is exact LRU, and invalid
    slots (which only a miss fills) are used before any line is
    evicted. Because every geometry field is a power of two, a line,
    its set and its segment are found by shift and mask, without a
    division. *)

type geometry = { size_bytes : int; line_bytes : int; assoc : int }
(** One cache level. [size_bytes] must be a multiple of
    [line_bytes * assoc]; all three must be powers of two. *)

val check_geometry : geometry -> (unit, string * string) result
(** The rules above plus [assoc >= 1], a 64 MiB ceiling on
    [size_bytes] (128x the Cortex-A9 L2) and a 2^21-line ceiling per
    level (64 MiB of 32-byte lines): [Error (field, why)] names the
    first offending record field and why ("must be positive", "must be
    a power of two", "exceeds the 64 MiB ceiling", "must be a multiple
    of line_bytes * assoc", "must be at least N for this size" on
    [line_bytes]). {!create} raises [Invalid_argument] on the same
    violations. *)

val cortex_a9_l1 : geometry
(** 32 KiB, 32-byte lines, 4-way. *)

val cortex_a9_l2 : geometry
(** 512 KiB, 32-byte lines, 8-way. *)

type t

val create : geometry list -> t
(** Hierarchy ordered from L1 outward. The list may be empty (all
    accesses become DRAM accesses). *)

val levels : t -> int
(** Number of cache levels. *)

val access : t -> int -> int
(** Look up a non-negative byte address, updating LRU state and
    filling on miss. Returns the 1-based level that hit; [levels t + 1]
    means DRAM. Allocates nothing. *)

val line_shift : t -> int
(** log2 of the L1 line size (0 without levels): addresses [a] and [b]
    share an L1 line when [a lsr line_shift t = b lsr line_shift t].
    Every {!access} leaves its line the most recently used of its L1
    set, so the next access to that line, with no access in between,
    hits L1 and changes nothing. A caller that made both accesses may
    take that hit as level 1 without calling {!access}: this is how the
    runtime copies charge a run per line, and how the CPU reference
    kernels charge the store of the element they just loaded. *)

val flush : t -> unit
(** Invalidate everything. *)

val resident : t -> level:int -> int -> bool
(** Whether the line containing the address is present at the 1-based
    level (probe without state change; for tests). *)
