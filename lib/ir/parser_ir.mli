(** Parser for the generic operation form produced by
    {!Printer.to_generic}.

    Each parse mints its values from a fresh {!Ir.ctx}, one per value
    name defined, so a parsed module is structurally equal to the
    module that was printed but its ids are its own. The round-trip law is
    [to_generic (parse (to_generic m)) = to_generic m].

    {b Allocation.} A parse allocates the module it returns and little
    else:
    - the module itself: its ops, value and attribute lists, values and
      attributes;
    - one {!Ty.t} per distinct memref or function type text, shared
      physically by every occurrence of that text (types are
      immutable). A scalar is [Ty]'s own constant ({!Ty.scalar}), and
      [!accel.token] is {!Ty.token};
    - one string per distinct op name, attribute key and escape-free
      string attribute (a callee name, a symbol), shared the same way;
    - per-parse tables and stacks. The tables map spans of the source
      (start, length) to values, strings and types: about four words
      per distinct name, string or type text and a bucket head each,
      doubled as they fill. The stacks hold the value names and types
      of the ops open at one point until their checks run, so they grow
      with the operand and result counts along one nesting path.
    A [%name] is looked up by its span, and an integer is read in place:
    the text of a name, a number or a type is built only for an error
    message.

    Past 256 words (about 64 distinct names) a table's arrays are
    allocated directly in the major heap, which [Gc.minor_words], and
    so hostbench's [alloc_mwords], does not count.
    [test/suite_parser.ml] bounds a parse of
    [test/golden/matmul_v3_16_cs.mlir] at 2,500 minor words (it takes
    about 1,800 for a module of about 1,200), and a parse of a module
    of 4,000 values, 2,000 type texts and 2,000 strings, major-heap
    words included, at twice the module's size (it takes about 1.6
    times).

    The span tables hash and chain as [Hashtbl] does ({!Span_table}),
    so hostile names flood them no more than a [Hashtbl] of strings. *)

exception Parse_error of string
(** Message includes line and column. A name the user wrote is quoted
    as written, with its [%]. The checks of one op run at the end of its
    text, in a fixed order: operand and result arities, operand lookup,
    operand types, then result binding. *)

val parse_op : string -> Ir.op
(** Parse a single top-level operation (typically a
    [builtin.module]). *)

val parse_type : string -> Ty.t
(** Parse a type in isolation (exposed for tests). *)

val parse_attribute : string -> Attribute.t
(** Parse an attribute in isolation (exposed for tests). *)
