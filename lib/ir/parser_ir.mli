(** Parser for the generic operation form produced by
    {!Printer.to_generic}.

    Each parse mints its values from a fresh {!Ir.ctx}, one per value
    name defined, so a parsed module is structurally equal to the
    module that was printed but its ids are its own. The round-trip law is
    [to_generic (parse (to_generic m)) = to_generic m]. *)

exception Parse_error of string
(** Message includes line and column. *)

val parse_op : string -> Ir.op
(** Parse a single top-level operation (typically a
    [builtin.module]). *)

val parse_type : string -> Ty.t
(** Parse a type in isolation (exposed for tests). *)

val parse_attribute : string -> Attribute.t
(** Parse an attribute in isolation (exposed for tests). *)
