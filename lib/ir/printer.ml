(* Printing state: a buffer, an indentation level, and a table assigning
   sequential %N names to value ids in order of first appearance. *)

type state = {
  buf : Buffer.t;
  names : (int, string) Hashtbl.t;
  mutable next : int;
  mutable indent : int;
}

let make_state () = { buf = Buffer.create 1024; names = Hashtbl.create 64; next = 0; indent = 0 }

let name_of st (v : Ir.value) =
  match Hashtbl.find_opt st.names v.vid with
  | Some n -> n
  | None ->
    let n = Printf.sprintf "%%%d" st.next in
    st.next <- st.next + 1;
    Hashtbl.add st.names v.vid n;
    n

let pad st = Buffer.add_string st.buf (String.make (st.indent * 2) ' ')
let add st s = Buffer.add_string st.buf s
let addf st fmt = Printf.ksprintf (add st) fmt

let type_list tys = String.concat ", " (List.map Ty.to_string tys)

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
  (match o.results with
  | [] -> ()
  | results ->
    add st (String.concat ", " (List.map (name_of st) results));
    add st " = ");
  addf st "\"%s\"(%s)" o.name (String.concat ", " (List.map (name_of st) o.operands));
  (match o.regions with
  | [] -> ()
  | regions ->
    add st " (";
    List.iteri
      (fun i r ->
        if i > 0 then add st ", ";
        generic_region st r)
      regions;
    add st ")");
  add_attrs st o;
  addf st " : (%s) -> (%s)"
    (type_list (List.map (fun (v : Ir.value) -> v.vty) o.operands))
    (type_list (List.map (fun (v : Ir.value) -> v.vty) o.results));
  add st "\n"

and generic_region st (r : Ir.region) =
  add st "{\n";
  st.indent <- st.indent + 1;
  List.iter (generic_block st) r;
  st.indent <- st.indent - 1;
  pad st;
  add st "}"

and generic_block st (b : Ir.block) =
  (match b.bargs with
  | [] -> ()
  | args ->
    pad st;
    addf st "^bb(%s):\n"
      (String.concat ", "
         (List.map
            (fun (v : Ir.value) -> Printf.sprintf "%s: %s" (name_of st v) (Ty.to_string v.vty))
            args)));
  List.iter (generic_op st) b.body

let to_generic operation =
  let st = make_state () in
  generic_op st operation;
  Buffer.contents st.buf

(* ------------------------------------------------------------------ *)
(* Pretty form                                                         *)
(* ------------------------------------------------------------------ *)

let attr_string (o : Ir.op) key =
  match Ir.attr o key with Some a -> Attribute.to_string a | None -> "?"

let rec pretty_op st (o : Ir.op) =
  match o.name with
  | "builtin.module" ->
    pad st;
    add st "module {\n";
    st.indent <- st.indent + 1;
    List.iter (pretty_op st) (Ir.single_block o).body;
    st.indent <- st.indent - 1;
    pad st;
    add st "}\n"
  | "func.func" ->
    let block = Ir.single_block o in
    let sym = match Ir.attr o "sym_name" with Some (Str s) -> s | _ -> "?" in
    pad st;
    addf st "func.func @%s(%s)" sym
      (String.concat ", "
         (List.map
            (fun (v : Ir.value) -> Printf.sprintf "%s: %s" (name_of st v) (Ty.to_string v.vty))
            block.bargs));
    (match Ir.attr o "function_type" with
    | Some (Type_attr (Ty.Func (_, results))) when results <> [] ->
      addf st " -> (%s)" (type_list results)
    | _ -> ());
    add st " {\n";
    st.indent <- st.indent + 1;
    List.iter (pretty_op st) block.body;
    st.indent <- st.indent - 1;
    pad st;
    add st "}\n"
  | "func.return" ->
    pad st;
    if o.operands = [] then add st "return\n"
    else addf st "return %s\n" (String.concat ", " (List.map (name_of st) o.operands))
  | "func.call" ->
    pad st;
    (match o.results with
    | [] -> ()
    | results -> addf st "%s = " (String.concat ", " (List.map (name_of st) results)));
    addf st "func.call @%s(%s)\n" (attr_string o "callee" |> strip_quotes)
      (String.concat ", " (List.map (name_of st) o.operands))
  | "arith.constant" ->
    pad st;
    addf st "%s = arith.constant %s : %s\n"
      (name_of st (Ir.result o))
      (attr_string o "value")
      (Ty.to_string (Ir.result o).vty)
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
    addf st "scf.for %s = %s to %s step %s {\n" (name_of st iv) (name_of st lb)
      (name_of st ub) (name_of st step);
    st.indent <- st.indent + 1;
    List.iter (pretty_op st) block.body;
    st.indent <- st.indent - 1;
    pad st;
    add st "}\n"
  | "scf.yield" when o.operands = [] -> ()
  | "memref.subview" ->
    pad st;
    let source = match o.operands with s :: _ -> name_of st s | [] -> "?" in
    addf st "%s = memref.subview %s[%s] [%s] [1, ...] : %s\n"
      (name_of st (Ir.result o))
      source
      (attr_string o "static_offsets")
      (attr_string o "static_sizes")
      (Ty.to_string (Ir.result o).vty)
  | "memref.load" ->
    pad st;
    (match o.operands with
    | m :: indices ->
      addf st "%s = memref.load %s[%s] : %s\n"
        (name_of st (Ir.result o))
        (name_of st m)
        (String.concat ", " (List.map (name_of st) indices))
        (Ty.to_string m.vty)
    | [] -> add st "memref.load ?\n")
  | "memref.store" ->
    pad st;
    (match o.operands with
    | v :: m :: indices ->
      addf st "memref.store %s, %s[%s] : %s\n" (name_of st v) (name_of st m)
        (String.concat ", " (List.map (name_of st) indices))
        (Ty.to_string m.vty)
    | _ -> add st "memref.store ?\n")
  | "memref.alloc" ->
    pad st;
    addf st "%s = memref.alloc() : %s\n"
      (name_of st (Ir.result o))
      (Ty.to_string (Ir.result o).vty)
  | "memref.dealloc" ->
    pad st;
    (match o.operands with
    | [ m ] -> addf st "memref.dealloc %s : %s\n" (name_of st m) (Ty.to_string m.vty)
    | _ -> add st "memref.dealloc ?\n")
  | "linalg.generic" ->
    pad st;
    add st "linalg.generic {\n";
    st.indent <- st.indent + 1;
    List.iter
      (fun (k, v) ->
        pad st;
        addf st "%s = %s\n" k (Attribute.to_string v))
      o.attrs;
    st.indent <- st.indent - 1;
    pad st;
    addf st "} ins/outs(%s)" (String.concat ", " (List.map (name_of st) o.operands));
    (match o.regions with
    | [] -> add st "\n"
    | [ r ] ->
      add st " ";
      pretty_kernel st r;
      add st "\n"
    | _ -> add st " <multiple regions>\n")
  | name when String.length name >= 6 && String.sub name 0 6 = "accel." ->
    pad st;
    (match o.results with
    | [] -> ()
    | results -> addf st "%s = " (String.concat ", " (List.map (name_of st) results)));
    add st name;
    add_attrs st o;
    addf st "(%s) : %s -> %s\n"
      (String.concat ", " (List.map (name_of st) o.operands))
      (type_list (List.map (fun (v : Ir.value) -> v.vty) o.operands))
      (type_list (List.map (fun (v : Ir.value) -> v.vty) o.results))
  | _ ->
    (* Fallback: generic form for unknown ops. *)
    generic_op st o

and pretty_kernel st (r : Ir.region) =
  add st "{\n";
  st.indent <- st.indent + 1;
  List.iter (generic_block st) r;
  st.indent <- st.indent - 1;
  pad st;
  add st "}"

and strip_quotes s =
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let to_pretty operation =
  let st = make_state () in
  pretty_op st operation;
  Buffer.contents st.buf
