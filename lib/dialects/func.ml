let func_name = "func.func"
let return_name = "func.return"
let call_name = "func.call"

let func_op ctx ~name ~args ?(results = []) build_body =
  let arg_values = List.map (Ir.fresh_value ctx) args in
  let b = Builder.create ctx in
  build_body b arg_values;
  let body = Builder.finish b in
  Ir.op func_name
    ~attrs:
      [
        ("sym_name", Attribute.Str name);
        ("function_type", Attribute.Type_attr (Ty.Func (args, results)));
      ]
    ~regions:[ [ Ir.block ~args:arg_values body ] ]

let return_op b values = Builder.emit b (Ir.op return_name ~operands:values)

let call b ~callee ?(results = []) operands =
  let result_values = List.map (Builder.fresh b) results in
  Builder.emit b
    (Ir.op call_name ~operands ~results:result_values
       ~attrs:[ ("callee", Attribute.Str callee) ]);
  result_values

let name_of o =
  if o.Ir.name <> func_name then invalid_arg "Func.name_of: not a func.func";
  Attribute.get_str (Ir.attr_exn o "sym_name")

let body_of o =
  if o.Ir.name <> func_name then invalid_arg "Func.body_of: not a func.func";
  Ir.single_block o

let is_func o = o.Ir.name = func_name

let find_func module_op name =
  List.find_opt
    (fun o -> is_func o && name_of o = name)
    (Ir.module_body module_op)

let verify_func (o : Ir.op) =
  match (Ir.attr o "sym_name", Ir.attr o "function_type") with
  | Some (Str _), Some (Type_attr (Ty.Func (args, _))) ->
    let block = Ir.single_block o in
    if List.length block.bargs <> List.length args then
      Error "entry block arguments do not match the function type"
    else if
      not
        (List.for_all2
           (fun (v : Ir.value) ty -> Ty.equal v.vty ty)
           block.bargs args)
    then Error "entry block argument types do not match the function type"
    else begin
      match List.rev block.body with
      | last :: _ when last.name = return_name -> Ok ()
      | _ -> Error "function body does not end with func.return"
    end
  | _ -> Error "missing sym_name or function_type attribute"

let verify_call (o : Ir.op) =
  match Ir.attr o "callee" with
  | Some (Str _) -> Ok ()
  | Some _ | None -> Error "missing or non-string callee attribute"
