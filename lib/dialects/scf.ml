let for_name = "scf.for"
let yield_name = "scf.yield"

let for_ b ~lb ~ub ~step build_body =
  let iv = Builder.fresh b Ty.index in
  let body =
    Builder.nest b (fun () ->
        build_body b iv;
        Builder.emit b (Ir.op yield_name))
  in
  Builder.emit b
    (Ir.op for_name ~operands:[ lb; ub; step ] ~regions:[ [ Ir.block ~args:[ iv ] body ] ])

let for_range b ~lb ~ub ~step build_body =
  let lb = Arith.constant_index b lb in
  let ub = Arith.constant_index b ub in
  let step = Arith.constant_index b step in
  for_ b ~lb ~ub ~step build_body

let induction_var (o : Ir.op) =
  if o.name <> for_name then invalid_arg "Scf.induction_var: not an scf.for";
  match (Ir.single_block o).bargs with
  | [ iv ] -> iv
  | _ -> invalid_arg "Scf.induction_var: malformed scf.for"

let loop_body (o : Ir.op) =
  if o.name <> for_name then invalid_arg "Scf.loop_body: not an scf.for";
  List.filter (fun (op : Ir.op) -> op.name <> yield_name) (Ir.single_block o).body

let verify_for (o : Ir.op) =
  match o.operands with
  | [ lb; ub; step ] ->
    if
      not
        (List.for_all (fun (v : Ir.value) -> Ty.equal v.vty Ty.index) [ lb; ub; step ])
    then Error "loop bounds must be index-typed"
    else begin
      let block = Ir.single_block o in
      match block.bargs with
      | [ iv ] ->
        if not (Ty.equal iv.Ir.vty Ty.index) then
          Error "induction variable must be index-typed"
        else begin
          match List.rev block.body with
          | last :: _ when last.Ir.name = yield_name -> Ok ()
          | _ -> Error "loop body must end with scf.yield"
        end
      | _ -> Error "loop body must have exactly one block argument"
    end
  | _ -> Error "scf.for requires exactly lb, ub and step operands"
