(** A table keyed by spans of one source text, so that looking a token
    up builds no string: a parser's symbol table.

    A key is a span, its start and length in the text; two spans are
    the same key when their bytes are equal. Buckets are chained and
    hashed exactly as [Hashtbl] hashes a string: a span hashes to
    [Hashtbl.hash] of its text, a new entry heads its bucket's chain,
    and the buckets double once they hold two entries each on average.
    A set of hostile names that floods this table floods a [Hashtbl]
    keyed by the same names, and the other way round.

    Until its first entry a table holds no arrays. Entries are numbered from 0
    in the order they were added. *)

type 'a t

val create : string -> 'a t
(** An empty table over the text. *)

val hash : string -> int -> int -> int
(** [hash src start len] is [Hashtbl.hash (String.sub src start len)],
    computed in place. *)

val find : 'a t -> int -> int -> int
(** [find t start len] is the entry whose key reads the same as the
    span, or -1. Allocates nothing. *)

val get : 'a t -> int -> 'a
(** The data of an entry {!find} returned. *)

val add : 'a t -> int -> int -> 'a -> 'a
(** [add t start len x] adds [x] under a span that {!find} does not
    know, and returns [x]. *)
