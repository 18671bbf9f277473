let alloc b ty =
  (match ty with
  | Ty.Memref m when Ty.is_identity_layout m -> ()
  | Ty.Memref _ -> invalid_arg "Memref_d.alloc: layout must be identity"
  | Ty.Scalar _ | Ty.Func _ | Ty.Token -> invalid_arg "Memref_d.alloc: not a memref type");
  Builder.emit_result b (Ir.op "memref.alloc" ~results:[ Builder.fresh b ty ])

let subview b src ~offsets ~sizes =
  let m = Ty.memref_of src.Ir.vty in
  if List.length offsets <> Ty.rank m || List.length sizes <> Ty.rank m then
    invalid_arg "Memref_d.subview: offsets/sizes rank mismatch";
  let result_ty = Ty.dynamic_subview_type m ~sizes in
  Builder.emit_result b
    (Ir.op "memref.subview"
       ~operands:(src :: offsets)
       ~results:[ Builder.fresh b result_ty ]
       ~attrs:
         [
           ("static_sizes", Attribute.Ints sizes);
           ("static_strides", Attribute.Ints (List.map (fun _ -> 1) sizes));
         ])

let load b src indices =
  let m = Ty.memref_of src.Ir.vty in
  if List.length indices <> Ty.rank m then invalid_arg "Memref_d.load: index rank mismatch";
  Builder.emit_result b
    (Ir.op "memref.load" ~operands:(src :: indices)
       ~results:[ Builder.fresh b (Ty.Scalar m.elem) ])

let store b value dst indices =
  let m = Ty.memref_of dst.Ir.vty in
  if List.length indices <> Ty.rank m then invalid_arg "Memref_d.store: index rank mismatch";
  if not (Ty.equal value.Ir.vty (Ty.Scalar m.elem)) then
    invalid_arg "Memref_d.store: value type does not match element type";
  Builder.emit b (Ir.op "memref.store" ~operands:(value :: dst :: indices))

let dim_size v d =
  let m = Ty.memref_of v.Ir.vty in
  match List.nth_opt m.shape d with
  | Some extent -> extent
  | None -> invalid_arg (Printf.sprintf "Memref_d.dim_size: dimension %d out of range" d)

let is_index (v : Ir.value) = Ty.equal v.vty Ty.index

let verify_subview (o : Ir.op) =
  match (o.operands, o.results) with
  | src :: offsets, [ r ] -> (
    match (src.Ir.vty, r.Ir.vty) with
    | Ty.Memref m, Ty.Memref rm ->
      let rank = Ty.rank m in
      if List.length offsets <> rank then Error "expected one offset per dimension"
      else if not (List.for_all is_index offsets) then Error "offsets must be index-typed"
      else if List.length rm.shape <> rank then Error "result rank must match source rank"
      else if rm.strides <> m.strides then Error "result must inherit source strides"
      else Ok ()
    | _ -> Error "source and result must be memrefs")
  | _ -> Error "expected a source memref, offsets, and one result"

let verify_load (o : Ir.op) =
  match (o.operands, o.results) with
  | src :: indices, [ r ] -> (
    match src.Ir.vty with
    | Ty.Memref m ->
      if List.length indices <> Ty.rank m then Error "expected one index per dimension"
      else if not (List.for_all is_index indices) then Error "indices must be index-typed"
      else if not (Ty.equal r.Ir.vty (Ty.Scalar m.elem)) then
        Error "result type must be the element type"
      else Ok ()
    | _ -> Error "source must be a memref")
  | _ -> Error "expected a source memref, indices, and one result"

let verify_store (o : Ir.op) =
  match o.operands with
  | value :: dst :: indices -> (
    match dst.Ir.vty with
    | Ty.Memref m ->
      if List.length indices <> Ty.rank m then Error "expected one index per dimension"
      else if not (List.for_all is_index indices) then Error "indices must be index-typed"
      else if not (Ty.equal value.Ir.vty (Ty.Scalar m.elem)) then
        Error "stored value type must be the element type"
      else Ok ()
    | _ -> Error "destination must be a memref")
  | _ -> Error "expected a value, a destination memref, and indices"

let verify_alloc (o : Ir.op) =
  match o.results with
  | [ r ] -> (
    match r.Ir.vty with
    | Ty.Memref m when Ty.is_identity_layout m -> Ok ()
    | Ty.Memref _ -> Error "alloc result must have identity layout"
    | _ -> Error "alloc result must be a memref")
  | _ -> Error "alloc must have exactly one result"
