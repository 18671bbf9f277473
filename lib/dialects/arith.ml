let constant b attr ty =
  Builder.emit_result b
    (Ir.op "arith.constant" ~results:[ Builder.fresh b ty ] ~attrs:[ ("value", attr) ])

let constant_index b n = constant b (Attribute.Int n) Ty.index
let constant_i32 b n = constant b (Attribute.Int n) Ty.i32
let constant_f32 b f = constant b (Attribute.Float f) Ty.f32

let binop name b lhs rhs =
  if not (Ty.equal lhs.Ir.vty rhs.Ir.vty) then
    invalid_arg
      (Printf.sprintf "%s: operand types differ (%s vs %s)" name
         (Ty.to_string lhs.Ir.vty) (Ty.to_string rhs.Ir.vty));
  Builder.emit_result b
    (Ir.op name ~operands:[ lhs; rhs ] ~results:[ Builder.fresh b lhs.Ir.vty ])

let addi b = binop "arith.addi" b
let subi b = binop "arith.subi" b
let muli b = binop "arith.muli" b
let addf b = binop "arith.addf" b
let mulf b = binop "arith.mulf" b

let index_cast b v =
  let target =
    if Ty.equal v.Ir.vty Ty.index then Ty.i32
    else if Ty.equal v.Ir.vty Ty.i32 then Ty.index
    else invalid_arg "arith.index_cast: operand must be index or i32"
  in
  Builder.emit_result b
    (Ir.op "arith.index_cast" ~operands:[ v ] ~results:[ Builder.fresh b target ])

let const_value (o : Ir.op) =
  if o.name <> "arith.constant" then invalid_arg "Arith.const_value: not a constant";
  Ir.attr_exn o "value"

let verify_constant (o : Ir.op) =
  match (o.results, Ir.attr o "value") with
  | [ _ ], Some (Attribute.Int _ | Attribute.Float _ | Attribute.Bool _) -> Ok ()
  | [ _ ], _ -> Error "constant requires an int, float or bool value attribute"
  | _, _ -> Error "constant must have exactly one result"

let verify_binop (o : Ir.op) =
  match (o.operands, o.results) with
  | [ a; b ], [ r ] ->
    if Ty.equal a.Ir.vty b.Ir.vty && Ty.equal a.Ir.vty r.Ir.vty then Ok ()
    else Error "operand and result types must all match"
  | _ -> Error "binary op requires two operands and one result"
