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

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.6e" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Unit -> "unit"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> float_literal f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Type_attr ty -> Printf.sprintf "type(%s)" (Ty.to_string ty)
  | Ints l -> Printf.sprintf "dense<[%s]>" (String.concat ", " (List.map string_of_int l))
  | Strs l ->
    Printf.sprintf "[%s]"
      (String.concat ", " (List.map (fun s -> Printf.sprintf "#%s" s) l))
  | Array l -> Printf.sprintf "[%s]" (String.concat ", " (List.map to_string l))
  | Dict members ->
    Printf.sprintf "{%s}"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s = %s" k (to_string v)) members))
  | Affine m -> Affine_map.to_string m
  | Opcode_map m -> Opcode.map_to_string m
  | Opcode_flow f -> Opcode.flow_to_string f

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
