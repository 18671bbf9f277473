type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
exception Type_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "line %d, column %d: %s" st.line st.col msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %c, found %c" c c')
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let expect_keyword st kw =
  String.iter (fun c -> expect st c) kw

let parse_hex4 st =
  let value = ref 0 in
  for _ = 1 to 4 do
    let digit =
      match peek st with
      | Some c when c >= '0' && c <= '9' -> Char.code c - Char.code '0'
      | Some c when c >= 'a' && c <= 'f' -> Char.code c - Char.code 'a' + 10
      | Some c when c >= 'A' && c <= 'F' -> Char.code c - Char.code 'A' + 10
      | Some c -> error st (Printf.sprintf "invalid hex digit %c" c)
      | None -> error st "unterminated \\u escape"
    in
    advance st;
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

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'u' ->
        advance st;
        let cp = parse_hex4 st in
        (* Combine surrogate pairs when present. *)
        if cp >= 0xD800 && cp <= 0xDBFF then begin
          expect st '\\';
          expect st 'u';
          let low = parse_hex4 st in
          if low < 0xDC00 || low > 0xDFFF then error st "invalid surrogate pair";
          let combined = 0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00) in
          buffer_add_codepoint buf combined
        end
        else buffer_add_codepoint buf cp
      | Some c -> error st (Printf.sprintf "invalid escape \\%c" c)
      | None -> error st "unterminated escape");
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let rec go () =
      match peek st with
      | Some c when c >= '0' && c <= '9' ->
        advance st;
        go ()
      | Some _ | None -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | Some _ | None -> ());
  consume_digits ();
  (match peek st with
  | Some '.' ->
    is_float := true;
    advance st;
    consume_digits ()
  | Some _ | None -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | Some _ | None -> ());
    consume_digits ()
  | Some _ | None -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st (Printf.sprintf "invalid number %s" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Fall back to float for integers exceeding native int range. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error st (Printf.sprintf "invalid number %s" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string st)
  | Some 't' ->
    expect_keyword st "true";
    Bool true
  | Some 'f' ->
    expect_keyword st "false";
    Bool false
  | Some 'n' ->
    expect_keyword st "null";
    Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)
  | None -> error st "unexpected end of input"

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
    advance st;
    Obj []
  | _ ->
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ((key, value) :: acc)
      | Some '}' ->
        advance st;
        Obj (List.rev ((key, value) :: acc))
      | Some c -> error st (Printf.sprintf "expected , or } in object, found %c" c)
      | None -> error st "unterminated object"
    in
    members []

and parse_list st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
    advance st;
    List []
  | _ ->
    let rec elements acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements (value :: acc)
      | Some ']' ->
        advance st;
        List (List.rev (value :: acc))
      | Some c -> error st (Printf.sprintf "expected , or ] in array, found %c" c)
      | None -> error st "unterminated array"
    in
    elements []

let of_string src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | Some c -> error st (Printf.sprintf "trailing content starting with %c" c)
  | None -> ());
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
        let* v = decode (path ^ "." ^ key) item in
        go ((key, v) :: acc) rest
    in
    go [] members
  | _ -> error path "expected a JSON object"

let field_opt name decode path = function
  | Obj members -> (
    match List.assoc_opt name members with
    | None | Some Null -> Ok None
    | Some v -> Result.map Option.some (decode (path ^ "." ^ name) v))
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
