(** A cursor over a string: the one lexer behind every hand-written
    parser in the repository — the textual IR ({!Parser_ir}), opcode
    maps and flows ({!Opcode}) and JSON ({!Json}).

    Each grammar keeps its own token rules (IR numbers and strings,
    JSON's [\u] escapes and number fallback) and shares the rest:
    whitespace, single-character tokens, identifiers, integers,
    delimited lists, nesting depth and error positions.

    End of input is decided by position ({!at_end}). [peek] never
    allocates; past the end it returns ['\000'], which no grammar
    accepts, so code that must tell the end from a NUL byte asks
    {!at_end}. *)

exception Error of string
(** Every parse error: ["line L, column C: what went wrong"], 1-based,
    at the cursor. *)

type t

val create : comments:bool -> string -> t
(** A cursor at the start of the text. [comments] makes {!skip_ws} skip
    [//] line comments as well as blanks; only the textual IR has
    them. *)

val max_depth : int
(** Deepest nesting any parser accepts: 256 brackets (an IR region
    list, attribute array or dictionary, affine parenthesis or function
    type; a JSON array or object; an opcode-flow scope). It bounds the
    parsers' stack and the printer's output on hostile input, which
    indents each line by its depth. The deepest committed input,
    [test/golden/conv2d_ws.mlir], nests 8 deep; fuzz-generated modules
    reach 10. *)

(** {1 Position} *)

val at_end : t -> bool
val pos : t -> int

val text_from : t -> int -> string
(** [text_from t start] is the source from [start] up to the cursor. *)

val fail : t -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} at the cursor. The line and column are computed only
    here, on the error path. *)

(** {1 Characters} *)

val peek : t -> char
(** The byte at the cursor, without skipping blanks. *)

val peek_at : t -> int -> char
(** [peek_at t k] is the byte [k] places after the cursor. *)

val advance : t -> unit

val skip_while : t -> (char -> bool) -> unit
(** Skip the longest run of matching characters. *)

val is_digit : char -> bool
val is_hex_digit : char -> bool

val skip_ws : t -> unit
(** Skip blanks ([' '], tab, CR, LF) and, when the grammar has them,
    [//] comments to end of line. *)

val plain : t -> (t -> 'a) -> 'a
(** [plain t f] runs [f] with comments off: a comment-free grammar
    parsed in place inside one that has them (an opcode payload in the
    textual IR). *)

(** {1 Tokens}

    Each of these skips blanks first. *)

val accept : t -> char -> bool
(** Consume the character if it is next. *)

val expect : t -> char -> unit
(** Consume the character or fail naming it and what was found. *)

val accept_string : t -> string -> bool
(** Consume the exact text if it is next. *)

val expect_string : t -> string -> unit

val scan_id : t -> (char -> bool) -> string
(** A non-empty identifier of characters the grammar's predicate
    accepts. *)

val scan_int : t -> int
(** An integer literal: an optional [-] directly before the digits,
    decimal or [0x]/[0X] hexadecimal. A literal that does not fit an
    OCaml [int] fails at its first character. *)

(** {1 Spans}

    The same tokens, read in place: each returns where its text starts,
    and the cursor is where it ends. None of them allocates unless it
    fails. *)

val skip_id : t -> (char -> bool) -> int
(** {!scan_id} without building its text. *)

val read_int : t -> int
(** {!scan_int} without building its text. *)

val int_from : t -> int -> int
(** [int_from t start] reads the source from [start] up to the cursor
    with [int_of_string]'s rules for an optional [-] and decimal or
    [0x] digits: decimal in [\[min_int, max_int\]], hexadecimal as any
    63-bit pattern. Raises [Exit] when the text is not such a literal
    or does not fit. *)

val same_bytes : string -> int -> string -> int -> int -> bool
(** [same_bytes a i b j len]: whether the [len] bytes of [a] from [i]
    are those of [b] from [j]; false when either span runs past its
    text. With [b] a keyword and [j = 0], whether a span reads it. *)

val seek : t -> int -> unit
(** Move the cursor to a position, for a parser that skips text it
    has read before. *)

(** {1 Structure} *)

val sep_list : t -> sep:char -> close:char -> (t -> 'a) -> 'a list
(** [sep_list t ~sep ~close item], after an opening bracket the caller
    consumed: zero or more [item]s separated by [sep], then [close]. No
    trailing separator. The list counts one level of nesting. *)

val enter : t -> unit
(** Open one level of nesting; fails past {!max_depth}. *)

val leave : t -> unit

val depth : t -> int
(** The levels open now. *)

val finish : t -> unit
(** Skip trailing blanks and fail unless the whole text was consumed. *)
