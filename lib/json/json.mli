(** A small self-contained JSON implementation.

    Accelerator/host configuration files (Fig. 5 of the paper) are JSON;
    no external JSON package is vendored, so this module provides the
    subset we need: full parsing of standard JSON (objects, arrays,
    strings with escapes, numbers, booleans, null), a printer, and typed
    accessor helpers with located error messages. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message containing line/column. *)

val of_string : string -> t
(** Parse a JSON document. Raises {!Parse_error}. *)

val to_string : ?indent:int -> t -> string
(** Print a JSON document. [indent > 0] pretty-prints. *)

(** {1 Typed accessors}

    All accessors raise {!Type_error} with a path-qualified message on
    mismatch, so configuration errors point at the offending field. *)

exception Type_error of string

val member : string -> t -> t
(** [member key json] is the value bound to [key] in an object;
    [Null] if the key is absent. Raises {!Type_error} if not an object. *)

val member_opt : string -> t -> t option
(** As {!member} but [None] when absent. *)

val to_int : t -> int
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list

(** {1 Decoders}

    Every reader of a configuration or artifact is written with these.
    A decoder receives the path of the value it decodes
    (["platform.instances[1]"]) and reports malformed input as
    [Error "PATH: WHY"], never as an exception. The path grows by
    [.name] for an object member and by [[i]] for an array element, so
    an error names the offending field exactly
    (["platform.instances[1].engine: expected string, found int"]). *)

type 'a decoder = string -> t -> ('a, string) result

val error : string -> string -> ('a, string) result
(** [error path why] is [Error "PATH: WHY"]. *)

val lift : (t -> 'a) -> 'a decoder
(** A decoder from a raising converter: a {!Type_error} or [Failure]
    becomes [Error "PATH: MESSAGE"]. *)

val int : int decoder
val float : float decoder
val bool : bool decoder
val string : string decoder
(** {!lift}ed {!to_int}, {!to_float}, {!to_bool} and {!to_str}. *)

val positive_float : float decoder
(** A finite float above 0, else ["PATH: must be positive"]: for
    quantities a simulation divides by, such as a clock frequency. *)

val value : t decoder
(** Any value, unchanged. *)

val list : 'a decoder -> 'a list decoder
(** An array; element [i] is decoded at [PATH[i]]. *)

val assoc : 'a decoder -> (string * 'a) list decoder
(** An object's members in document order; member [k] is decoded at
    [PATH.k]. A key that appears twice is ["PATH.k: duplicate field"],
    as in {!field}. *)

val field : string -> 'a decoder -> 'a decoder
(** [field name dec path obj] decodes member [name] of [obj] at
    [PATH.name]. An absent or [null] member is
    ["PATH.name: missing field"]; a member that appears twice is
    ["PATH.name: duplicate field"]; a non-object [obj] is
    ["PATH: expected a JSON object"]. *)

val field_opt : string -> 'a decoder -> 'a option decoder
(** As {!field}, but an absent or [null] member is [Ok None]. A
    duplicate member is still an error. *)

val schema : string -> unit decoder
(** [schema tag] checks the object's required ["schema"] member:
    ["PATH.schema: expected \"TAG\", got \"OTHER\""] on a mismatch. *)

(** {1 Documents and files}

    Never raise on bad input: an unreadable file or a syntax error is
    an [Error] naming the file. Writers always close the channel. *)

val of_string_result : string -> (t, string) result
(** {!of_string} with the {!Parse_error} message as [Error]. *)

val read_file : string -> (t, string) result
(** Read and parse a whole file (["FILE: line L, column C: ..."] on a
    syntax error). *)

val load : (t -> ('a, string) result) -> string -> ('a, string) result
(** {!read_file}, then decode; a decode error is prefixed with
    ["FILE: "]. *)

val write_file : ?indent:int -> string -> t -> unit
(** Create or truncate the file and write {!to_string} [?indent] plus a
    trailing newline. *)

val read_lines : string -> (string list, string) result
(** The lines of a JSON-lines file (one compact document per line). *)

val write_lines : ?append:bool -> string -> t list -> unit
(** Write one compact document per line, truncating the file or, with
    [~append:true], appending to it (creating it if needed). *)
