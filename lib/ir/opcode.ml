type action =
  | Send of int
  | Send_literal of int
  | Send_dim of int * int
  | Send_idx of int * int
  | Recv of int

type entry = { key : string; actions : action list }
type map = entry list

type flow_elem = Op of string | Scope of flow_elem list
type flow = flow_elem list

exception Syntax_error = Scanner.Error

(* ------------------------------------------------------------------ *)
(* Parsing: Figs. 7 and 8 on a Scanner cursor, standalone or in place  *)
(* inside the textual IR                                               *)
(* ------------------------------------------------------------------ *)

module S = Scanner

let is_id_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let parse_action sc =
  let name = S.scan_id sc is_id_char in
  S.expect sc '(';
  let action =
    match name with
    | "send" -> Send (S.scan_int sc)
    | "send_literal" -> Send_literal (S.scan_int sc)
    | "send_dim" | "send_idx" ->
      let n = S.scan_int sc in
      S.expect sc ',';
      let d = S.scan_int sc in
      if name = "send_dim" then Send_dim (n, d) else Send_idx (n, d)
    | "recv" -> Recv (S.scan_int sc)
    | other -> S.fail sc "unknown action '%s'" other
  in
  S.expect sc ')';
  action

let parse_entry sc =
  let key = S.scan_id sc is_id_char in
  S.expect sc '=';
  S.expect sc '[';
  { key; actions = S.sep_list sc ~sep:',' ~close:']' parse_action }

let scan_map sc = S.plain sc (fun sc -> S.sep_list sc ~sep:',' ~close:'>' parse_entry)

(* Flow elements up to [close]: ')' ends a scope, '>' a wrapped flow,
   and a bare flow runs to the end of the text. *)
let rec flow_elems sc ~close acc =
  S.skip_ws sc;
  match S.peek sc with
  | _ when S.at_end sc ->
    if close = None then List.rev acc else S.fail sc "unbalanced '(' in opcode_flow"
  | '(' ->
    S.advance sc;
    S.enter sc;
    let inner = flow_elems sc ~close:(Some ')') [] in
    S.leave sc;
    flow_elems sc ~close (Scope inner :: acc)
  | c when Some c = close ->
    S.advance sc;
    List.rev acc
  | ')' -> S.fail sc "unbalanced ')' in opcode_flow"
  | c when is_id_char c -> flow_elems sc ~close (Op (S.scan_id sc is_id_char) :: acc)
  | c -> S.fail sc "unexpected '%c' in opcode_flow" c

let scan_flow sc = S.plain sc (fun sc -> flow_elems sc ~close:(Some '>') [])

(* Standalone text: the [keyword<...>] wrapper is optional, and blanks
   around the text are trimmed. *)
let parse_text keyword ~wrapped ~bare src =
  let sc = S.create ~comments:false (String.trim src) in
  let v = if S.accept_string sc (keyword ^ "<") then wrapped sc else bare sc in
  S.finish sc;
  v

let parse_map =
  parse_text "opcode_map" ~wrapped:scan_map ~bare:(fun sc ->
      S.skip_ws sc;
      if S.at_end sc then []
      else
        let rec entries acc =
          let e = parse_entry sc in
          if S.accept sc ',' then entries (e :: acc) else List.rev (e :: acc)
        in
        entries [])

let parse_flow = parse_text "opcode_flow" ~wrapped:scan_flow ~bare:(fun sc ->
    flow_elems sc ~close:None [])

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let action_to_string = function
  | Send n -> Printf.sprintf "send(%d)" n
  | Send_literal v -> Printf.sprintf "send_literal(0x%X)" v
  | Send_dim (n, d) -> Printf.sprintf "send_dim(%d, %d)" n d
  | Send_idx (n, d) -> Printf.sprintf "send_idx(%d, %d)" n d
  | Recv n -> Printf.sprintf "recv(%d)" n

let entry_to_string e =
  Printf.sprintf "%s = [%s]" e.key
    (String.concat ", " (List.map action_to_string e.actions))

let map_to_string m =
  Printf.sprintf "opcode_map<%s>" (String.concat ", " (List.map entry_to_string m))

let rec flow_elem_to_string = function
  | Op key -> key
  | Scope elems -> Printf.sprintf "(%s)" (String.concat " " (List.map flow_elem_to_string elems))

let flow_to_string f =
  Printf.sprintf "opcode_flow<%s>" (String.concat " " (List.map flow_elem_to_string f))

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let rec check_all f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    check_all f rest

let validate_action ~n_args a =
  let check_arg n =
    if n < 0 || n >= n_args then
      Error (Printf.sprintf "argument index %d out of range [0, %d)" n n_args)
    else Ok ()
  in
  match a with
  | Send n | Recv n -> check_arg n
  | Send_literal v ->
    if v < 0 || v > 0xFFFFFFFF then
      Error (Printf.sprintf "literal 0x%X does not fit an unsigned 32-bit word" v)
    else Ok ()
  | Send_dim (n, d) | Send_idx (n, d) ->
    let* () = check_arg n in
    if d < 0 then Error (Printf.sprintf "negative dimension index %d" d) else Ok ()

let validate_map ~n_args m =
  let* () =
    check_all
      (fun e ->
        if e.key = "" then Error "empty opcode key"
        else check_all (validate_action ~n_args) e.actions)
      m
  in
  let keys = List.map (fun e -> e.key) m in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    Error "duplicate opcode keys in opcode_map"
  else Ok ()

let find m key = List.find_opt (fun e -> e.key = key) m

let rec flow_opcodes_of_elems elems =
  List.concat_map (function Op k -> [ k ] | Scope inner -> flow_opcodes_of_elems inner) elems

let flow_opcodes f = flow_opcodes_of_elems f

let validate_flow m f =
  let keys = flow_opcodes f in
  let* () =
    check_all
      (fun k ->
        match find m k with
        | Some _ -> Ok ()
        | None -> Error (Printf.sprintf "opcode '%s' is not defined in the opcode_map" k))
      keys
  in
  let* () =
    if List.length (List.sort_uniq compare keys) <> List.length keys then
      Error "an opcode appears more than once in the opcode_flow"
    else Ok ()
  in
  let rec no_empty_scope = function
    | [] -> Ok ()
    | Op _ :: rest -> no_empty_scope rest
    | Scope [] :: _ -> Error "empty scope '()' in opcode_flow"
    | Scope inner :: rest ->
      let* () = no_empty_scope inner in
      no_empty_scope rest
  in
  if f = [] then Error "empty opcode_flow" else no_empty_scope f

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* The top-level of the flow counts as depth 0 when it only contains a
   single scope (the common `(...)` wrapper); opcodes written at the top
   level without parentheses sit in an implicit depth-1 scope. *)
let flow_depth f =
  (* Depth of the whole flow = deepest scope nesting reached by any
     opcode; a bare top-level opcode counts as depth 1. *)
  let rec opcode_depth current = function
    | Op _ -> max current 1
    | Scope inner ->
      List.fold_left (fun acc e -> max acc (opcode_depth (current + 1) e)) (current + 1) inner
  in
  List.fold_left (fun acc e -> max acc (opcode_depth 0 e)) 0 f

let flow_placements f =
  let rec go depth acc = function
    | [] -> acc
    | Op k :: rest -> go depth ((k, max depth 1) :: acc) rest
    | Scope inner :: rest ->
      let acc = go (depth + 1) acc inner in
      go depth acc rest
  in
  List.rev (go 0 [] f)

let actions_of_flow m f =
  List.concat_map
    (fun k -> match find m k with Some e -> e.actions | None -> [])
    (flow_opcodes f)

let sends_of_actions actions =
  List.filter_map (function Send n -> Some n | _ -> None) actions

let recvs_of_actions actions =
  List.filter_map (function Recv n -> Some n | _ -> None) actions

let equal_map a b = a = b
let equal_flow a b = a = b
