type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error = Scanner.Error
exception Type_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

module S = Scanner

let parse_hex4 sc =
  let value = ref 0 in
  for _ = 1 to 4 do
    let digit =
      match S.peek sc with
      | _ when S.at_end sc -> S.fail sc "unterminated \\u escape"
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> S.fail sc "invalid hex digit %c" c
    in
    S.advance sc;
    value := (!value * 16) + digit
  done;
  !value

(* Encode a Unicode code point as UTF-8 into the buffer. *)
let buffer_add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_escape sc buf =
  match S.peek sc with
  | _ when S.at_end sc -> S.fail sc "unterminated escape"
  | 'u' ->
    S.advance sc;
    let cp = parse_hex4 sc in
    (* Combine surrogate pairs when present. *)
    if cp >= 0xD800 && cp <= 0xDBFF then begin
      if not (S.peek sc = '\\' && S.peek_at sc 1 = 'u') then
        S.fail sc "expected a \\u low surrogate";
      S.advance sc;
      S.advance sc;
      let low = parse_hex4 sc in
      if low < 0xDC00 || low > 0xDFFF then S.fail sc "invalid surrogate pair";
      buffer_add_codepoint buf (0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00))
    end
    else buffer_add_codepoint buf cp
  | c ->
    Buffer.add_char buf
      (match c with
      | '"' | '\\' | '/' -> c
      | 'b' -> '\b'
      | 'f' -> '\012'
      | 'n' -> '\n'
      | 'r' -> '\r'
      | 't' -> '\t'
      | c -> S.fail sc "invalid escape \\%c" c);
    S.advance sc

let parse_string sc =
  S.expect sc '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match S.peek sc with
    | _ when S.at_end sc -> S.fail sc "unterminated string"
    | '"' ->
      S.advance sc;
      Buffer.contents buf
    | '\\' ->
      S.advance sc;
      parse_escape sc buf;
      go ()
    | c ->
      S.advance sc;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number sc =
  let start = S.pos sc in
  let is_float = ref false in
  if S.peek sc = '-' then S.advance sc;
  S.skip_while sc S.is_digit;
  if S.peek sc = '.' then begin
    is_float := true;
    S.advance sc;
    S.skip_while sc S.is_digit
  end;
  if S.peek sc = 'e' || S.peek sc = 'E' then begin
    is_float := true;
    S.advance sc;
    if S.peek sc = '+' || S.peek sc = '-' then S.advance sc;
    S.skip_while sc S.is_digit
  end;
  let text = S.text_from sc start in
  let float () =
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> S.fail sc "invalid number %s" text
  in
  if !is_float then float ()
  else
    match int_of_string_opt text with
    | Some i -> Int i
    (* Fall back to float for integers exceeding native int range. *)
    | None -> float ()

let rec parse_value sc =
  S.skip_ws sc;
  match S.peek sc with
  | _ when S.at_end sc -> S.fail sc "unexpected end of input"
  | '{' ->
    S.advance sc;
    Obj (S.sep_list sc ~sep:',' ~close:'}' parse_member)
  | '[' ->
    S.advance sc;
    List (S.sep_list sc ~sep:',' ~close:']' parse_value)
  | '"' -> String (parse_string sc)
  | 't' ->
    S.expect_string sc "true";
    Bool true
  | 'f' ->
    S.expect_string sc "false";
    Bool false
  | 'n' ->
    S.expect_string sc "null";
    Null
  | '-' | '0' .. '9' -> parse_number sc
  | c -> S.fail sc "unexpected character %c" c

and parse_member sc =
  let key = parse_string sc in
  S.expect sc ':';
  (key, parse_value sc)

let of_string src =
  let sc = S.create ~comments:false src in
  let v = parse_value sc in
  S.finish sc;
  v

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(indent = 0) json =
  let buf = Buffer.create 256 in
  let pad depth = if indent > 0 then Buffer.add_string buf (String.make (depth * indent) ' ') in
  let newline () = if indent > 0 then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_literal f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      newline ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (key, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (depth + 1);
          Buffer.add_string buf (escape_string key);
          Buffer.add_string buf (if indent > 0 then ": " else ":");
          go (depth + 1) value)
        members;
      newline ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let type_error expected json =
  raise (Type_error (Printf.sprintf "expected %s, found %s" expected (type_name json)))

let member key = function
  | Obj members -> ( match List.assoc_opt key members with Some v -> v | None -> Null)
  | json -> type_error "object" json

let member_opt key json =
  match member key json with Null -> None | v -> Some v

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | json -> type_error "int" json

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | json -> type_error "float" json

let to_bool = function Bool b -> b | json -> type_error "bool" json
let to_str = function String s -> s | json -> type_error "string" json
let to_list = function List l -> l | json -> type_error "array" json
let to_obj = function Obj members -> members | json -> type_error "object" json

(* ------------------------------------------------------------------ *)
(* Decoders                                                            *)
(* ------------------------------------------------------------------ *)

type 'a decoder = string -> t -> ('a, string) result

let ( let* ) = Result.bind

let error path why = Error (Printf.sprintf "%s: %s" path why)

let lift convert path json =
  match convert json with
  | v -> Ok v
  | exception Type_error msg -> error path msg
  | exception Failure msg -> error path msg

let int = lift to_int
let float = lift to_float
let bool = lift to_bool
let string = lift to_str
let value _path json = Ok json

let positive_float path json =
  Result.bind (float path json) (fun f ->
      if Float.is_finite f && f > 0.0 then Ok f else error path "must be positive")

let list decode path = function
  | List items ->
    let rec go acc i = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        let* v = decode (Printf.sprintf "%s[%d]" path i) item in
        go (v :: acc) (i + 1) rest
    in
    go [] 0 items
  | json -> error path (Printf.sprintf "expected array, found %s" (type_name json))

let assoc decode path = function
  | Obj members ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (key, item) :: rest ->
        if List.mem_assoc key rest then error (path ^ "." ^ key) "duplicate field"
        else
          let* v = decode (path ^ "." ^ key) item in
          go ((key, v) :: acc) rest
    in
    go [] members
  | _ -> error path "expected a JSON object"

(* The members from the first one named [name] on. *)
let rec from_member name = function
  | [] -> []
  | (key, _) :: rest as members ->
    if String.equal key name then members else from_member name rest

let field_opt name decode path = function
  | Obj members -> (
    match from_member name members with
    | [] -> Ok None
    | (_, v) :: rest -> (
      if List.mem_assoc name rest then error (path ^ "." ^ name) "duplicate field"
      else
        match v with
        | Null -> Ok None
        | v -> Result.map Option.some (decode (path ^ "." ^ name) v)))
  | _ -> error path "expected a JSON object"

let field name decode path json =
  let* v = field_opt name decode path json in
  match v with Some v -> Ok v | None -> error (path ^ "." ^ name) "missing field"

let schema tag path json =
  let* got = field "schema" string path json in
  if got = tag then Ok ()
  else error (path ^ ".schema") (Printf.sprintf "expected %S, got %S" tag got)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let of_string_result text =
  match of_string text with json -> Ok json | exception Parse_error msg -> Error msg

let read_text path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

let read_file path =
  let* text = read_text path in
  Result.map_error (fun msg -> path ^ ": " ^ msg) (of_string_result text)

let load decode path =
  let* json = read_file path in
  Result.map_error (fun msg -> path ^ ": " ^ msg) (decode json)

let read_lines path = Result.map (String.split_on_char '\n') (read_text path)

let write_text ~flags path text =
  Out_channel.with_open_gen (Open_wronly :: Open_creat :: Open_binary :: flags) 0o644 path
    (fun oc -> Out_channel.output_string oc text)

let write_file ?indent path json =
  write_text ~flags:[ Open_trunc ] path (to_string ?indent json ^ "\n")

let write_lines ?(append = false) path jsons =
  write_text
    ~flags:[ (if append then Open_append else Open_trunc) ]
    path
    (String.concat "" (List.map (fun json -> to_string json ^ "\n") jsons))
