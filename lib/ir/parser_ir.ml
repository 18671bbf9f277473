exception Parse_error = Scanner.Error

module S = Scanner

let is_id_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
  | _ -> false

(* Whether the span [start, start + len) of [src] reads [s]. *)
let span_is src start len s = len = String.length s && S.same_bytes src start s 0 len

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

(* One parse: the cursor, the module's value ids, the tables that let
   a parse allocate each distinct string and type once, and two stacks
   holding an op's value names and types until its checks run. *)
type p = {
  sc : S.t;
  src : string;
  ctx : Ir.ctx;
  values : Ir.value Span_table.t;  (* %name, with its '%' *)
  strings : string Span_table.t;  (* op names, attribute keys and plain string attributes *)
  types : Ty.t Span_table.t;  (* memref and function type texts *)
  mutable names : int array;  (* start, length per pending %name *)
  mutable n_names : int;
  mutable tys : Ty.t array;  (* pending operand and result types *)
  mutable n_tys : int;
}

let state src =
  {
    sc = S.create ~comments:true src;
    src;
    ctx = Ir.context ();
    values = Span_table.create src;
    strings = Span_table.create src;
    types = Span_table.create src;
    names = [||];
    n_names = 0;
    tys = [||];
    n_tys = 0;
  }

let intern p start len =
  match Span_table.find p.strings start len with
  | -1 -> Span_table.add p.strings start len (String.sub p.src start len)
  | e -> Span_table.get p.strings e

(* ------------------------------------------------------------------ *)
(* Tokens and lists                                                    *)
(* ------------------------------------------------------------------ *)

(* An identifier, interned. *)
let scan_key p =
  let start = S.skip_id p.sc is_id_char in
  intern p start (S.pos p.sc - start)

(* Scan a number that may be a float; returns either Int or Float attr. *)
let scan_number p =
  let sc = p.sc in
  S.skip_ws sc;
  let start = S.pos sc in
  if S.accept sc '-' then ();
  let hex = S.peek sc = '0' && (S.peek_at sc 1 = 'x' || S.peek_at sc 1 = 'X') in
  if hex then begin
    S.advance sc;
    S.advance sc
  end;
  S.skip_while sc (if hex then S.is_hex_digit else S.is_digit);
  let is_float = ref false in
  if not hex then begin
    if S.peek sc = '.' then begin
      is_float := true;
      S.advance sc;
      S.skip_while sc S.is_digit
    end;
    (* Only treat e/E as an exponent when followed by digits or a sign. *)
    match (S.peek sc, S.peek_at sc 1) with
    | ('e' | 'E'), ('0' .. '9' | '+' | '-') ->
      is_float := true;
      S.advance sc;
      if S.peek sc = '+' || S.peek sc = '-' then S.advance sc;
      S.skip_while sc S.is_digit
    | _ -> ()
  end;
  if !is_float then
    let text = S.text_from sc start in
    match float_of_string_opt text with
    | Some f -> Attribute.Float f
    | None -> S.fail sc "invalid float literal %s" text
  else
    (* read in place; the text is built only for the error *)
    match S.int_from sc start with
    | i -> Attribute.Int i
    | exception Exit -> S.fail sc "invalid integer literal %s" (S.text_from sc start)

let not_quote_or_escape c = c <> '"' && c <> '\\'

(* The rest of a string with escapes, from the first backslash. *)
let escaped_string p start =
  let sc = p.sc in
  let buf = Buffer.create 16 in
  Buffer.add_substring buf p.src start (S.pos sc - start);
  let rec go () =
    match S.peek sc with
    | _ when S.at_end sc -> S.fail sc "unterminated string"
    | '"' ->
      S.advance sc;
      Buffer.contents buf
    | '\\' ->
      S.advance sc;
      (match S.peek sc with
      | _ when S.at_end sc -> S.fail sc "unterminated escape"
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | 'n' -> Buffer.add_char buf '\n'
      | c -> S.fail sc "invalid escape \\%c" c);
      S.advance sc;
      go ()
    | c ->
      S.advance sc;
      Buffer.add_char buf c;
      go ()
  in
  go ()

(* A quoted string: interned when it has no escape. *)
let scan_string p =
  let sc = p.sc in
  S.expect sc '"';
  let start = S.pos sc in
  S.skip_while sc not_quote_or_escape;
  if S.at_end sc then S.fail sc "unterminated string"
  else if S.peek sc = '"' then begin
    let s = intern p start (S.pos sc - start) in
    S.advance sc;
    s
  end
  else escaped_string p start

(* After an opening bracket: [item]s separated by commas up to [close],
   built in order with one cons each. The list is one level of nesting,
   as in {!Scanner.sep_list}. *)
let rec list p ~close item =
  let sc = p.sc in
  S.enter sc;
  let items = if S.accept sc close then [] else items p ~close item in
  S.leave sc;
  items

and[@tail_mod_cons] items p ~close item =
  let x = item p in
  if S.accept p.sc ',' then x :: items p ~close item
  else begin
    S.expect p.sc close;
    [ x ]
  end

let read_int p = S.read_int p.sc

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec dtype_in src start len = function
  | [] -> raise Not_found
  | d :: rest ->
    if span_is src start len (Ty.dtype_to_string d) then d else dtype_in src start len rest

let dtypes = Ty.[ F32; F64; I1; I8; I32; I64; Index ]

(* The characters of a type as the printer writes it. *)
let is_type_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '!' | ' ' | ',' | ':' | '?' | '-' | '<'
  | '>' | '[' | ']' | '(' | ')' ->
    true
  | _ -> false

(* The index after the [cl] closing the [op] at [i], crossing only type
   characters; -1 when there is none. *)
let rec close_of src i op cl depth =
  if i >= String.length src then -1
  else
    let c = String.unsafe_get src i in
    if not (is_type_char c) then -1
    else if c = op then close_of src (i + 1) op cl (depth + 1)
    else if c <> cl then close_of src (i + 1) op cl depth
    else if depth = 1 then i + 1
    else close_of src (i + 1) op cl (depth - 1)

let rec skip_spaces src i = if i < String.length src && src.[i] = ' ' then skip_spaces src (i + 1) else i

(* Where the memref or function type text at [i] ends, found without
   parsing it: its balanced "memref<...>", or "(...) -> (...)". -1 when
   the text is not in the printer's form, and the parser reads it
   afresh. The text never crosses a line or a comment. *)
let type_end src i =
  if span_is src i 7 "memref<" then close_of src (i + 6) '<' '>' 0
  else if i < String.length src && src.[i] = '(' then
    let j = close_of src i '(' ')' 0 in
    let j = if j < 0 then j else skip_spaces src j in
    if j >= 0 && span_is src j 2 "->" then
      let j = skip_spaces src (j + 2) in
      if j < String.length src && src.[j] = '(' then close_of src j '(' ')' 0 else -1
    else -1
  else -1

let rec parse_ty p =
  let sc = p.sc in
  S.skip_ws sc;
  let start = S.pos sc in
  match S.peek sc with
  | '(' -> shared p start parse_func
  | '!' -> (
    (* dialect type: the only one we model is !accel.token *)
    S.advance sc;
    let id = S.skip_id sc is_id_char in
    match span_is p.src id (S.pos sc - id) "accel.token" with
    | true -> Ty.token
    | false -> S.fail sc "unknown dialect type !%s" (S.text_from sc id))
  | _ -> (
    S.skip_while sc is_id_char;
    let len = S.pos sc - start in
    if len = 0 then S.fail sc "expected a type"
    else if span_is p.src start len "memref" then shared p start parse_memref
    else
      match dtype_in p.src start len dtypes with
      | d -> Ty.scalar d
      | exception Not_found -> S.fail sc "unknown type %s" (S.text_from sc start))

(* A memref or function type starting at [start]: the one parsed from
   the same text before, or [parse] from the cursor. A text read before
   parses to the same type unless it now nests past the depth limit, so
   a text that might is parsed afresh for the limit's error. *)
and shared p start parse =
  let stop = type_end p.src start in
  match
    if stop > start && S.depth p.sc + (stop - start) <= S.max_depth then
      Span_table.find p.types start (stop - start)
    else -1
  with
  | -1 -> (
    let ty = parse p in
    let len = S.pos p.sc - start in
    match Span_table.find p.types start len with
    | -1 -> Span_table.add p.types start len ty
    | e -> Span_table.get p.types e)
  | e ->
    S.seek p.sc stop;
    Span_table.get p.types e

(* (tys) -> (tys) *)
and parse_func p =
  let sc = p.sc in
  S.expect sc '(';
  let args = list p ~close:')' parse_ty in
  S.expect_string sc "->";
  S.expect sc '(';
  Ty.Func (args, list p ~close:')' parse_ty)

(* After "memref": <DxDx...dtype[, strided<[S, ...], offset: O|?>]> *)
and parse_memref p =
  let sc = p.sc in
  S.expect sc '<';
  let shape = dims p in
  let id = S.skip_id sc is_id_char in
  let elem =
    match dtype_in p.src id (S.pos sc - id) dtypes with
    | d -> d
    | exception Not_found -> S.fail sc "unknown element type %s" (S.text_from sc id)
  in
  if S.accept sc ',' then begin
    S.expect_string sc "strided";
    S.expect sc '<';
    S.expect sc '[';
    let strides = list p ~close:']' read_int in
    if List.length strides <> List.length shape then
      S.fail sc "%d strides for a rank-%d memref" (List.length strides) (List.length shape);
    S.expect sc ',';
    S.expect_string sc "offset";
    S.expect sc ':';
    let offset = if S.accept sc '?' then Ty.dynamic_offset else S.read_int sc in
    S.expect sc '>';
    S.expect sc '>';
    Ty.memref ~offset ~strides shape elem
  end
  else begin
    S.expect sc '>';
    Ty.memref shape elem
  end

and[@tail_mod_cons] dims p =
  let sc = p.sc in
  S.skip_ws sc;
  if S.is_digit (S.peek sc) then begin
    let d = S.read_int sc in
    if S.peek sc <> 'x' then S.fail sc "expected 'x' after memref dimension";
    S.advance sc;
    d :: dims p
  end
  else []

(* ------------------------------------------------------------------ *)
(* Affine maps                                                         *)
(* ------------------------------------------------------------------ *)

let rec dim_index src start len i = function
  | [] -> -1
  | name :: rest ->
    if span_is src start len name then i else dim_index src start len (i + 1) rest

(* affine_map<(d0, d1) -> (d0 * 2 + 1, d1)>; dim names are positional. *)
let parse_affine_map p =
  let sc = p.sc in
  S.expect sc '<';
  S.expect sc '(';
  let names = list p ~close:')' scan_key in
  S.expect_string sc "->";
  S.expect sc '(';
  (* expr := term (('+') term)* ; term := factor (('*') factor)* ;
     factor := INT | ID | '(' expr ')' *)
  let rec parse_expr p =
    let rec go lhs = if S.accept sc '+' then go (Affine_map.Add (lhs, parse_term p)) else lhs in
    go (parse_term p)
  and parse_term p =
    let rec go lhs = if S.accept sc '*' then go (Affine_map.Mul (lhs, parse_factor p)) else lhs in
    go (parse_factor p)
  and parse_factor p =
    S.skip_ws sc;
    match S.peek sc with
    | _ when S.at_end sc -> S.fail sc "expected affine expression"
    | '(' ->
      S.advance sc;
      S.enter sc;
      let e = parse_expr p in
      S.expect sc ')';
      S.leave sc;
      e
    | '0' .. '9' | '-' -> Affine_map.Cst (S.read_int sc)
    | _ -> (
      let id = S.skip_id sc is_id_char in
      match dim_index p.src id (S.pos sc - id) 0 names with
      | -1 -> S.fail sc "unknown affine dimension %s" (S.text_from sc id)
      | i -> Affine_map.Dim i)
  in
  let results = list p ~close:')' parse_expr in
  S.expect sc '>';
  Affine_map.make ~n_dims:(List.length names) results

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

let iterator_type p =
  S.expect p.sc '#';
  scan_key p

(* Whether the identifier from [start] to the cursor is [s]. *)
let keyword p start s = span_is p.src start (S.pos p.sc - start) s

let rec parse_attr p =
  let sc = p.sc in
  S.skip_ws sc;
  match S.peek sc with
  | _ when S.at_end sc -> S.fail sc "expected an attribute"
  | '"' -> Attribute.Str (scan_string p)
  | '0' .. '9' | '-' -> scan_number p
  | '[' ->
    S.advance sc;
    S.skip_ws sc;
    if S.peek sc = '#' then
      (* iterator-type style string list: [#parallel, #reduction] *)
      Attribute.Strs (list p ~close:']' iterator_type)
    else Attribute.Array (list p ~close:']' parse_attr)
  | '{' ->
    S.advance sc;
    Attribute.Dict (parse_dict p)
  | _ ->
    let start = S.skip_id sc is_id_char in
    if keyword p start "unit" then Attribute.Unit
    else if keyword p start "true" then Attribute.Bool true
    else if keyword p start "false" then Attribute.Bool false
    else if keyword p start "type" then begin
      S.expect sc '(';
      let ty = parse_ty p in
      S.expect sc ')';
      Attribute.Type_attr ty
    end
    else if keyword p start "dense" then begin
      S.expect sc '<';
      S.expect sc '[';
      let ints = list p ~close:']' read_int in
      S.expect sc '>';
      Attribute.Ints ints
    end
    else if keyword p start "affine_map" then Attribute.Affine (parse_affine_map p)
    else if keyword p start "opcode_map" then begin
      S.expect sc '<';
      Attribute.Opcode_map (Opcode.scan_map sc)
    end
    else if keyword p start "opcode_flow" then begin
      S.expect sc '<';
      Attribute.Opcode_flow (Opcode.scan_flow sc)
    end
    else S.fail sc "unknown attribute '%s'" (S.text_from sc start)

(* After '{': key = attr, ... } — an attribute dictionary, and an op's
   attributes. *)
and parse_dict p = list p ~close:'}' parse_entry

and parse_entry p =
  let key = scan_key p in
  S.expect p.sc '=';
  (key, parse_attr p)

(* ------------------------------------------------------------------ *)
(* Values and operations                                               *)
(* ------------------------------------------------------------------ *)

(* A %name: its start (at the '%') and length. *)
let scan_value_name p =
  let sc = p.sc in
  S.expect sc '%';
  let start = S.pos sc in
  S.skip_while sc is_id_char;
  if S.pos sc = start then S.fail sc "expected value name after %%";
  start - 1

let name_text p start len = String.sub p.src start len

let lookup_value p start len =
  match Span_table.find p.values start len with
  | -1 -> S.fail p.sc "use of undefined value %s" (name_text p start len)
  | e -> Span_table.get p.values e

let bind_value p start len ty =
  if Span_table.find p.values start len >= 0 then
    S.fail p.sc "redefinition of value %s" (name_text p start len);
  Span_table.add p.values start len (Ir.fresh_value p.ctx ty)

(* [a], or a copy twice as long once [need] slots do not fit. *)
let room a need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * need)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let push_name p =
  let start = scan_value_name p in
  let n = p.n_names in
  p.names <- room p.names ((2 * n) + 2) 0;
  p.names.(2 * n) <- start;
  p.names.((2 * n) + 1) <- S.pos p.sc - start;
  p.n_names <- n + 1

let push_ty p =
  let ty = parse_ty p in
  let n = p.n_tys in
  p.tys <- room p.tys (n + 1) ty;
  p.tys.(n) <- ty;
  p.n_tys <- n + 1

(* After an opening bracket: [push]es separated by commas up to [close],
   nested as {!list}; how many. *)
let rec push_list p ~close push =
  let sc = p.sc in
  S.enter sc;
  let n = if S.accept sc close then 0 else push_items p ~close push 1 in
  S.leave sc;
  n

and push_items p ~close push n =
  push p;
  if S.accept p.sc ',' then push_items p ~close push (n + 1)
  else begin
    S.expect p.sc close;
    n
  end

let[@tail_mod_cons] rec lookup_operands p i stop =
  if i = stop then []
  else
    let v = lookup_value p p.names.(2 * i) p.names.((2 * i) + 1) in
    v :: lookup_operands p (i + 1) stop

let rec check_types p name (vs : Ir.value list) i =
  match vs with
  | [] -> ()
  | v :: rest ->
    let ty = p.tys.(i) in
    if not (Ty.equal v.vty ty) then
      S.fail p.sc "op %s: operand type mismatch: %s vs %s" name (Ty.to_string v.vty)
        (Ty.to_string ty);
    check_types p name rest (i + 1)

let[@tail_mod_cons] rec bind_results p i stop t =
  if i = stop then []
  else
    let v = bind_value p p.names.(2 * i) p.names.((2 * i) + 1) p.tys.(t) in
    v :: bind_results p (i + 1) stop (t + 1)

(* The names of an op's results and operands wait on the name stack,
   and its operand and result types on the type stack, until its checks
   run at the end of its text: arities, then operand lookup, then
   operand types, then result binding, as each value is minted from
   [p.ctx] in definition order. *)
let rec parse_op p : Ir.op =
  let sc = p.sc in
  S.skip_ws sc;
  let base = p.n_names in
  let n_results = if S.peek sc = '%' then push_list p ~close:'=' push_name else 0 in
  let name = scan_string p in
  S.expect sc '(';
  let n_operands = push_list p ~close:')' push_name in
  let regions =
    if S.accept sc '(' then
      match list p ~close:')' parse_region with
      | [] -> S.fail sc "expected a region"
      | regions -> regions
    else []
  in
  let attrs = if S.accept sc '{' then parse_dict p else [] in
  S.expect sc ':';
  S.expect sc '(';
  let tbase = p.n_tys in
  let n_operand_tys = push_list p ~close:')' push_ty in
  S.expect_string sc "->";
  S.expect sc '(';
  let n_result_tys = push_list p ~close:')' push_ty in
  if n_operand_tys <> n_operands then
    S.fail sc "op %s: %d operands but %d operand types" name n_operands n_operand_tys;
  if n_result_tys <> n_results then
    S.fail sc "op %s: %d results but %d result types" name n_results n_result_tys;
  let first_operand = base + n_results in
  let operands = lookup_operands p first_operand (first_operand + n_operands) in
  check_types p name operands tbase;
  let results = bind_results p base first_operand (tbase + n_operands) in
  p.n_names <- base;
  p.n_tys <- tbase;
  { Ir.name; operands; results; attrs; regions }

(* { [^bb(%0: ty, ...):] op* } — one block. *)
and parse_region p : Ir.region =
  let sc = p.sc in
  S.expect sc '{';
  let bargs =
    if S.accept sc '^' then begin
      ignore (S.skip_id sc is_id_char : int);
      S.expect sc '(';
      let args = list p ~close:')' parse_block_arg in
      S.expect sc ':';
      args
    end
    else []
  in
  [ { Ir.bargs; body = ops p } ]

and parse_block_arg p =
  let start = scan_value_name p in
  let len = S.pos p.sc - start in
  S.expect p.sc ':';
  bind_value p start len (parse_ty p)

and[@tail_mod_cons] ops p =
  if S.accept p.sc '}' then []
  else
    let o = parse_op p in
    o :: ops p

let parse parse_item src =
  let p = state src in
  let result = parse_item p in
  S.finish p.sc;
  result

let parse_op src = parse parse_op src
let parse_type src = parse parse_ty src
let parse_attribute src = parse parse_attr src
