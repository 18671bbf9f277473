(* Printing state: a buffer, an indentation level, and the %N number of
   each value id in order of first appearance (-1 until printed).
   Everything is written straight into the buffer. *)

type state = {
  buf : Buffer.t;
  names : int array;
  mutable next : int;
  mutable indent : int;
}

let make_state operation =
  let names = Array.make (Ir.vid_bound operation) (-1) in
  { buf = Buffer.create 1024; names; next = 0; indent = 0 }

let add st s = Buffer.add_string st.buf s

let add_name st (v : Ir.value) =
  if st.names.(v.vid) < 0 then begin
    st.names.(v.vid) <- st.next;
    st.next <- st.next + 1
  end;
  Buffer.add_char st.buf '%';
  Util.add_int st.buf st.names.(v.vid)

let pad st =
  for _ = 1 to st.indent do
    add st "  "
  done

(* [item]s separated by ", ". *)
let rec add_list st item = function
  | [] -> ()
  | [ x ] -> item st x
  | x :: rest ->
    item st x;
    add st ", ";
    add_list st item rest

let add_names st values = add_list st add_name values

(* "%r0, %r1 = ", or nothing for an op without results. *)
let add_results st (o : Ir.op) =
  if o.results <> [] then begin
    add_names st o.results;
    add st " = "
  end

let add_value_type st (v : Ir.value) = Ty.add_to_buffer st.buf v.vty
let add_value_types st values = add_list st add_value_type values

(* "%N: type" *)
let add_typed_name st (v : Ir.value) =
  add_name st v;
  add st ": ";
  add_value_type st v

(* " {k = v, ...}", or nothing for an op without attributes. *)
let add_attrs st (o : Ir.op) =
  if o.attrs <> [] then begin
    add st " ";
    Attribute.add_to_buffer st.buf (Attribute.Dict o.attrs)
  end

(* ------------------------------------------------------------------ *)
(* Generic form                                                        *)
(* ------------------------------------------------------------------ *)

let rec generic_op st (o : Ir.op) =
  pad st;
  add_results st o;
  add st "\"";
  add st o.name;
  add st "\"(";
  add_names st o.operands;
  add st ")";
  if o.regions <> [] then begin
    add st " (";
    add_list st generic_region o.regions;
    add st ")"
  end;
  add_attrs st o;
  add st " : (";
  add_value_types st o.operands;
  add st ") -> (";
  add_value_types st o.results;
  add st ")\n"

and generic_region st (r : Ir.region) =
  add st "{\n";
  st.indent <- st.indent + 1;
  List.iter (generic_block st) r;
  st.indent <- st.indent - 1;
  pad st;
  add st "}"

and generic_block st (b : Ir.block) =
  if b.bargs <> [] then begin
    pad st;
    add st "^bb(";
    add_list st add_typed_name b.bargs;
    add st "):\n"
  end;
  List.iter (generic_op st) b.body

let to_generic operation =
  let st = make_state operation in
  generic_op st operation;
  Buffer.contents st.buf

(* ------------------------------------------------------------------ *)
(* Pretty form                                                         *)
(* ------------------------------------------------------------------ *)

(* The pretty form is not on any hot path: it formats with
   [Printf.bprintf] into the same buffer, through these [%a] printers. *)
let pf st fmt = Printf.bprintf st.buf fmt
let name st _ v = add_name st v
let names st _ vs = add_names st vs
let typed_names st _ vs = add_list st add_typed_name vs
let vtype buf (v : Ir.value) = Ty.add_to_buffer buf v.vty
let vtypes st _ vs = add_value_types st vs

let attr (o : Ir.op) buf key =
  match Ir.attr o key with
  | Some a -> Attribute.add_to_buffer buf a
  | None -> Buffer.add_char buf '?'

let strip_quotes s =
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let rec pretty_op st (o : Ir.op) =
  match o.name with
  | "builtin.module" ->
    pad st;
    add st "module {\n";
    pretty_body st (Ir.single_block o)
  | "func.func" ->
    let block = Ir.single_block o in
    let sym = match Ir.attr o "sym_name" with Some (Str s) -> s | _ -> "?" in
    pad st;
    pf st "func.func @%s(%a)" sym (typed_names st) block.bargs;
    (match Ir.attr o "function_type" with
    | Some (Type_attr (Ty.Func (_, results))) when results <> [] ->
      pf st " -> (%a)" (fun buf -> Util.add_list buf Ty.add_to_buffer) results
    | _ -> ());
    add st " {\n";
    pretty_body st block
  | "func.return" ->
    pad st;
    if o.operands = [] then add st "return\n"
    else pf st "return %a\n" (names st) o.operands
  | "func.call" ->
    pad st;
    add_results st o;
    pf st "func.call @%s(%a)\n"
      (match Ir.attr o "callee" with
      | Some a -> strip_quotes (Attribute.to_string a)
      | None -> "?")
      (names st) o.operands
  | "arith.constant" ->
    pad st;
    add_results st o;
    pf st "arith.constant %a : %a\n" (attr o) "value" vtype (Ir.result o)
  | "scf.for" ->
    let block = Ir.single_block o in
    let iv =
      match block.bargs with
      | [ v ] -> v
      | _ -> invalid_arg "scf.for: expected one block argument"
    in
    let lb, ub, step =
      match o.operands with
      | [ a; b; c ] -> (a, b, c)
      | _ -> invalid_arg "scf.for: expected three operands"
    in
    pad st;
    pf st "scf.for %a = %a to %a step %a {\n" (name st) iv (name st) lb (name st) ub
      (name st) step;
    pretty_body st block
  | "scf.yield" when o.operands = [] -> ()
  | "memref.subview" ->
    pad st;
    add_results st o;
    add st "memref.subview ";
    (match o.operands with s :: _ -> add_name st s | [] -> add st "?");
    pf st "[%a] [%a] [1, ...] : %a\n" (attr o) "static_offsets" (attr o) "static_sizes"
      vtype (Ir.result o)
  | "memref.load" -> (
    pad st;
    match o.operands with
    | m :: indices ->
      add_results st o;
      pf st "memref.load %a[%a] : %a\n" (name st) m (names st) indices vtype m
    | [] -> add st "memref.load ?\n")
  | "memref.store" -> (
    pad st;
    match o.operands with
    | v :: m :: indices ->
      pf st "memref.store %a, %a[%a] : %a\n" (name st) v (name st) m (names st) indices
        vtype m
    | _ -> add st "memref.store ?\n")
  | "memref.alloc" ->
    pad st;
    add_results st o;
    pf st "memref.alloc() : %a\n" vtype (Ir.result o)
  | "memref.dealloc" -> (
    pad st;
    match o.operands with
    | [ m ] -> pf st "memref.dealloc %a : %a\n" (name st) m vtype m
    | _ -> add st "memref.dealloc ?\n")
  | "linalg.generic" ->
    pad st;
    add st "linalg.generic {\n";
    st.indent <- st.indent + 1;
    List.iter
      (fun (k, v) ->
        pad st;
        pf st "%s = %a\n" k Attribute.add_to_buffer v)
      o.attrs;
    st.indent <- st.indent - 1;
    pad st;
    pf st "} ins/outs(%a)" (names st) o.operands;
    (match o.regions with
    | [] -> add st "\n"
    | [ r ] ->
      add st " ";
      generic_region st r;
      add st "\n"
    | _ -> add st " <multiple regions>\n")
  | op_name when String.starts_with ~prefix:"accel." op_name ->
    pad st;
    add_results st o;
    add st op_name;
    add_attrs st o;
    pf st "(%a) : %a -> %a\n" (names st) o.operands (vtypes st) o.operands (vtypes st)
      o.results
  | _ ->
    (* Fallback: generic form for unknown ops. *)
    generic_op st o

(* The block's ops one level in, then the closing brace. *)
and pretty_body st (b : Ir.block) =
  st.indent <- st.indent + 1;
  List.iter (pretty_op st) b.body;
  st.indent <- st.indent - 1;
  pad st;
  add st "}\n"

let to_pretty operation =
  let st = make_state operation in
  pretty_op st operation;
  Buffer.contents st.buf
