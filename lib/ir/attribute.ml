type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Type_attr of Ty.t
  | Ints of int list
  | Strs of string list
  | Array of t list
  | Dict of (string * t) list
  | Affine of Affine_map.t
  | Opcode_map of Opcode.map
  | Opcode_flow of Opcode.flow

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.6e" f
  else Printf.sprintf "%.17g" f

(* Nested attributes are written into one buffer, so printing is
   linear in the attribute's size at any depth. *)
let rec add_to_buffer buf attr =
  let add = Buffer.add_string buf in
  match attr with
  | Unit -> add "unit"
  | Bool b -> add (string_of_bool b)
  | Int i -> Util.add_int buf i
  | Float f -> add (float_literal f)
  | Str s ->
    add "\"";
    String.iter
      (function
        | '"' -> add "\\\""
        | '\\' -> add "\\\\"
        | '\n' -> add "\\n"
        | c -> Buffer.add_char buf c)
      s;
    add "\""
  | Type_attr ty ->
    add "type(";
    Ty.add_to_buffer buf ty;
    add ")"
  | Ints l ->
    add "dense<[";
    Util.add_list buf Util.add_int l;
    add "]>"
  | Strs l ->
    add "[";
    Util.add_list buf
      (fun buf s ->
        Buffer.add_char buf '#';
        Buffer.add_string buf s)
      l;
    add "]"
  | Array l ->
    add "[";
    Util.add_list buf add_to_buffer l;
    add "]"
  | Dict members ->
    add "{";
    Util.add_list buf
      (fun buf (k, v) ->
        Buffer.add_string buf k;
        Buffer.add_string buf " = ";
        add_to_buffer buf v)
      members;
    add "}"
  | Affine m -> add (Affine_map.to_string m)
  | Opcode_map m -> add (Opcode.map_to_string m)
  | Opcode_flow f -> add (Opcode.flow_to_string f)

let to_string attr =
  let buf = Buffer.create 64 in
  add_to_buffer buf attr;
  Buffer.contents buf

let equal a b = a = b

let mismatch what attr =
  invalid_arg (Printf.sprintf "Attribute: expected %s, found %s" what (to_string attr))

let get_int = function Int i -> i | a -> mismatch "int" a
let get_str = function Str s -> s | a -> mismatch "string" a
let get_ints = function Ints l -> l | a -> mismatch "dense ints" a
let get_strs = function Strs l -> l | a -> mismatch "strings" a
let get_affine = function Affine m -> m | a -> mismatch "affine_map" a
let get_opcode_map = function Opcode_map m -> m | a -> mismatch "opcode_map" a
let get_opcode_flow = function Opcode_flow f -> f | a -> mismatch "opcode_flow" a
let get_dict = function Dict d -> d | a -> mismatch "dict" a
let get_array = function Array l -> l | a -> mismatch "array" a
