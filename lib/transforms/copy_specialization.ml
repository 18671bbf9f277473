let unit_innermost_stride (v : Ir.value) =
  match v.vty with
  | Ty.Memref m -> (
    match List.rev m.strides with last :: _ -> last = 1 | [] -> true)
  | Ty.Scalar _ | Ty.Func _ | Ty.Token -> false

let rewrite (o : Ir.op) =
  if o.name <> "func.call" then o
  else
    match (Ir.attr o "callee", o.operands) with
    | Some (Attribute.Str callee), memref :: _ -> (
      match Option.bind (Runtime_abi.of_name callee) Runtime_abi.specialize with
      | Some twin when unit_innermost_stride memref ->
        let specialised = Runtime_abi.name twin in
        Remarks.emit ~kind:Remarks.Applied ~pass:"copy-specialization"
          ~name:"specialize-copy" ~loc:o.name
          ~args:[ ("callee", Remarks.Str specialised) ]
          (Printf.sprintf "rewrote %s to the memcpy-based fast path" callee);
        Ir.set_attr o "callee" (Attribute.Str specialised)
      | Some _ ->
        Remarks.emit ~kind:Remarks.Missed ~pass:"copy-specialization"
          ~name:"strided-copy" ~loc:o.name
          ~args:[ ("callee", Remarks.Str callee) ]
          "innermost stride is not 1: keeping the generic element-wise copy";
        o
      | None -> o)
    | _ -> o

let pass = Pass.make "copy-specialization" (fun m -> Ir.map_nested rewrite m)
