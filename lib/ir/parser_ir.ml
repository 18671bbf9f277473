exception Parse_error = Scanner.Error

module S = Scanner

let is_id_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
  | _ -> false

(* Scan a number that may be a float; returns either Int or Float attr. *)
let scan_number sc =
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
  let text = S.text_from sc start in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Attribute.Float f
    | None -> S.fail sc "invalid float literal %s" text
  else
    match int_of_string_opt text with
    | Some i -> Attribute.Int i
    | None -> S.fail sc "invalid integer literal %s" text

let scan_string sc =
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

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_ty sc =
  S.skip_ws sc;
  if S.accept sc '(' then begin
    (* function type: (tys) -> (tys) *)
    let args = parse_ty_list sc in
    S.expect_string sc "->";
    S.expect sc '(';
    Ty.Func (args, parse_ty_list sc)
  end
  else if S.accept sc '!' then begin
    (* dialect type: the only one we model is !accel.token *)
    let name = S.scan_id sc is_id_char in
    if name = "accel.token" then Ty.Token else S.fail sc "unknown dialect type !%s" name
  end
  else begin
    let start = S.pos sc in
    S.skip_while sc is_id_char;
    match S.text_from sc start with
    | "" -> S.fail sc "expected a type"
    | "memref" -> parse_memref sc
    | name -> (
      match Ty.dtype_of_string name with
      | Some d -> Ty.Scalar d
      | None -> S.fail sc "unknown type %s" name)
  end

and parse_ty_list sc = S.sep_list sc ~sep:',' ~close:')' parse_ty

(* After "memref": <DxDx...dtype[, strided<[S, ...], offset: O|?>]> *)
and parse_memref sc =
  S.expect sc '<';
  let rec dims acc =
    S.skip_ws sc;
    if S.is_digit (S.peek sc) then begin
      let d = S.scan_int sc in
      if S.peek sc <> 'x' then S.fail sc "expected 'x' after memref dimension";
      S.advance sc;
      dims (d :: acc)
    end
    else List.rev acc
  in
  let shape = dims [] in
  let dtype_name = S.scan_id sc is_id_char in
  let elem =
    match Ty.dtype_of_string dtype_name with
    | Some d -> d
    | None -> S.fail sc "unknown element type %s" dtype_name
  in
  let layout =
    if S.accept sc ',' then begin
      S.expect_string sc "strided";
      S.expect sc '<';
      S.expect sc '[';
      let strides = parse_int_list sc in
      if List.length strides <> List.length shape then
        S.fail sc "%d strides for a rank-%d memref" (List.length strides) (List.length shape);
      S.expect sc ',';
      S.expect_string sc "offset";
      S.expect sc ':';
      let offset = if S.accept sc '?' then Ty.dynamic_offset else S.scan_int sc in
      S.expect sc '>';
      Some (strides, offset)
    end
    else None
  in
  S.expect sc '>';
  match layout with
  | None -> Ty.memref shape elem
  | Some (strides, offset) -> Ty.memref ~offset ~strides shape elem

and parse_int_list sc = S.sep_list sc ~sep:',' ~close:']' S.scan_int

(* ------------------------------------------------------------------ *)
(* Affine maps                                                         *)
(* ------------------------------------------------------------------ *)

(* affine_map<(d0, d1) -> (d0 * 2 + 1, d1)>; dim names are positional. *)
let parse_affine_map sc =
  S.expect sc '<';
  S.expect sc '(';
  let names = S.sep_list sc ~sep:',' ~close:')' (fun sc -> S.scan_id sc is_id_char) in
  let dim_index name = Util.list_index (fun n -> n = name) names in
  S.expect_string sc "->";
  S.expect sc '(';
  (* expr := term (('+') term)* ; term := factor (('*') factor)* ;
     factor := INT | ID | '(' expr ')' *)
  let rec parse_expr sc =
    let rec go lhs = if S.accept sc '+' then go (Affine_map.Add (lhs, parse_term sc)) else lhs in
    go (parse_term sc)
  and parse_term sc =
    let rec go lhs = if S.accept sc '*' then go (Affine_map.Mul (lhs, parse_factor sc)) else lhs in
    go (parse_factor sc)
  and parse_factor sc =
    S.skip_ws sc;
    match S.peek sc with
    | _ when S.at_end sc -> S.fail sc "expected affine expression"
    | '(' ->
      S.advance sc;
      S.enter sc;
      let e = parse_expr sc in
      S.expect sc ')';
      S.leave sc;
      e
    | '0' .. '9' | '-' -> Affine_map.Cst (S.scan_int sc)
    | _ -> (
      let id = S.scan_id sc is_id_char in
      match dim_index id with
      | Some i -> Affine_map.Dim i
      | None -> S.fail sc "unknown affine dimension %s" id)
  in
  let results = S.sep_list sc ~sep:',' ~close:')' parse_expr in
  S.expect sc '>';
  Affine_map.make ~n_dims:(List.length names) results

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_attr sc =
  S.skip_ws sc;
  match S.peek sc with
  | _ when S.at_end sc -> S.fail sc "expected an attribute"
  | '"' -> Attribute.Str (scan_string sc)
  | '0' .. '9' | '-' -> scan_number sc
  | '[' ->
    S.advance sc;
    S.skip_ws sc;
    if S.peek sc = '#' then
      (* iterator-type style string list: [#parallel, #reduction] *)
      Attribute.Strs
        (S.sep_list sc ~sep:',' ~close:']' (fun sc ->
             S.expect sc '#';
             S.scan_id sc is_id_char))
    else Attribute.Array (S.sep_list sc ~sep:',' ~close:']' parse_attr)
  | '{' ->
    S.advance sc;
    Attribute.Dict (parse_dict sc)
  | _ -> (
    match S.scan_id sc is_id_char with
    | "unit" -> Attribute.Unit
    | "true" -> Attribute.Bool true
    | "false" -> Attribute.Bool false
    | "type" ->
      S.expect sc '(';
      let ty = parse_ty sc in
      S.expect sc ')';
      Attribute.Type_attr ty
    | "dense" ->
      S.expect sc '<';
      S.expect sc '[';
      let ints = parse_int_list sc in
      S.expect sc '>';
      Attribute.Ints ints
    | "affine_map" -> Attribute.Affine (parse_affine_map sc)
    | "opcode_map" ->
      S.expect sc '<';
      Attribute.Opcode_map (Opcode.scan_map sc)
    | "opcode_flow" ->
      S.expect sc '<';
      Attribute.Opcode_flow (Opcode.scan_flow sc)
    | other -> S.fail sc "unknown attribute '%s'" other)

(* After '{': key = attr, ... } — an attribute dictionary, and an op's
   attributes. *)
and parse_dict sc =
  S.sep_list sc ~sep:',' ~close:'}' (fun sc ->
      let key = S.scan_id sc is_id_char in
      S.expect sc '=';
      (key, parse_attr sc))

(* ------------------------------------------------------------------ *)
(* Values and operations                                               *)
(* ------------------------------------------------------------------ *)

let scan_value_name sc =
  S.expect sc '%';
  let start = S.pos sc in
  S.skip_while sc is_id_char;
  if S.pos sc = start then S.fail sc "expected value name after %%";
  S.text_from sc (start - 1) (* with its '%' *)

let lookup_value sc values name =
  match Hashtbl.find_opt values name with
  | Some v -> v
  | None -> S.fail sc "use of undefined value %s" name

let bind_value ctx sc values name ty =
  if Hashtbl.mem values name then S.fail sc "redefinition of value %s" name;
  let v = Ir.fresh_value ctx ty in
  Hashtbl.add values name v;
  v

(* [values] maps each %N in scope to its SSA value, minted from [ctx]. *)
let rec parse_op ctx values sc : Ir.op =
  S.skip_ws sc;
  let result_names =
    if S.peek sc = '%' then S.sep_list sc ~sep:',' ~close:'=' scan_value_name else []
  in
  let op_name = scan_string sc in
  S.expect sc '(';
  let operand_names = S.sep_list sc ~sep:',' ~close:')' scan_value_name in
  let regions =
    if S.accept sc '(' then
      match S.sep_list sc ~sep:',' ~close:')' (parse_region ctx values) with
      | [] -> S.fail sc "expected a region"
      | regions -> regions
    else []
  in
  let attrs = if S.accept sc '{' then parse_dict sc else [] in
  S.expect sc ':';
  S.expect sc '(';
  let operand_tys = parse_ty_list sc in
  S.expect_string sc "->";
  S.expect sc '(';
  let result_tys = parse_ty_list sc in
  if List.length operand_tys <> List.length operand_names then
    S.fail sc "op %s: %d operands but %d operand types" op_name (List.length operand_names)
      (List.length operand_tys);
  if List.length result_tys <> List.length result_names then
    S.fail sc "op %s: %d results but %d result types" op_name (List.length result_names)
      (List.length result_tys);
  let operands = List.map (lookup_value sc values) operand_names in
  List.iter2
    (fun (v : Ir.value) ty ->
      if not (Ty.equal v.vty ty) then
        S.fail sc "op %s: operand type mismatch: %s vs %s" op_name (Ty.to_string v.vty)
          (Ty.to_string ty))
    operands operand_tys;
  let results = List.map2 (bind_value ctx sc values) result_names result_tys in
  Ir.op op_name ~operands ~results ~attrs ~regions

(* { [^bb(%0: ty, ...):] op* } — one block. *)
and parse_region ctx values sc : Ir.region =
  S.expect sc '{';
  let args =
    if S.accept sc '^' then begin
      let _label = S.scan_id sc is_id_char in
      S.expect sc '(';
      let args =
        S.sep_list sc ~sep:',' ~close:')' (fun sc ->
            let name = scan_value_name sc in
            S.expect sc ':';
            bind_value ctx sc values name (parse_ty sc))
      in
      S.expect sc ':';
      args
    end
    else []
  in
  let rec ops acc =
    if S.accept sc '}' then List.rev acc else ops (parse_op ctx values sc :: acc)
  in
  [ Ir.block ~args (ops []) ]

let parse parse_item src =
  let sc = S.create ~comments:true src in
  let result = parse_item sc in
  S.finish sc;
  result

let parse_op src = parse (parse_op (Ir.context ()) (Hashtbl.create 64)) src
let parse_type src = parse parse_ty src
let parse_attribute src = parse parse_attr src
