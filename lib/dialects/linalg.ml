let generic_name = "linalg.generic"
let yield_name = "linalg.yield"

let parallel = "parallel"
let reduction = "reduction"

let yield b values = Builder.emit b (Ir.op yield_name ~operands:values)

let elem_value b (v : Ir.value) = Builder.fresh b (Ty.Scalar (Ty.memref_of v.vty).elem)

let generic b ~indexing_maps ~iterator_types ~inputs ~outputs ?op_kind kernel =
  let operands = inputs @ outputs in
  if List.length indexing_maps <> List.length operands then
    invalid_arg "Linalg.generic: one indexing map per operand is required";
  let block_args = List.map (elem_value b) operands in
  let kb = Builder.create (Builder.ctx b) in
  kernel kb block_args;
  let body = Builder.finish kb in
  let attrs =
    [
      ( "indexing_maps",
        Attribute.Array (List.map (fun m -> Attribute.Affine m) indexing_maps) );
      ("iterator_types", Attribute.Strs iterator_types);
      ("ins", Attribute.Int (List.length inputs));
    ]
    @ match op_kind with None -> [] | Some k -> [ ("op_kind", Attribute.Str k) ]
  in
  let op =
    Ir.op generic_name ~operands ~attrs
      ~regions:[ [ Ir.block ~args:block_args body ] ]
  in
  Builder.emit b op;
  op

let matmul b ~a ~b:bv ~c =
  let maps =
    [
      Affine_map.projection ~n_dims:3 [ 0; 2 ];
      Affine_map.projection ~n_dims:3 [ 2; 1 ];
      Affine_map.projection ~n_dims:3 [ 0; 1 ];
    ]
  in
  generic b ~indexing_maps:maps
    ~iterator_types:[ parallel; parallel; reduction ]
    ~inputs:[ a; bv ] ~outputs:[ c ] ~op_kind:"matmul"
    (fun kb args ->
      match args with
      | [ ae; be; ce ] ->
        let prod = Arith.mulf kb ae be in
        let sum = Arith.addf kb ce prod in
        yield kb [ sum ]
      | _ -> assert false)

(* Iteration space (n, f, oh, ow, c, fh, fw):
     I -> (n, c, s*oh + fh, s*ow + fw); W -> (f, c, fh, fw); O -> (n, f, oh, ow) *)
let conv_2d_nchw_fchw ?(stride = 1) b ~input ~filter ~output =
  let open Affine_map in
  let n = 7 in
  let spatial d = if stride = 1 then Dim d else Mul (Cst stride, Dim d) in
  let input_map =
    make ~n_dims:n [ Dim 0; Dim 4; Add (spatial 2, Dim 5); Add (spatial 3, Dim 6) ]
  in
  let filter_map = projection ~n_dims:n [ 1; 4; 5; 6 ] in
  let output_map = projection ~n_dims:n [ 0; 1; 2; 3 ] in
  generic b
    ~indexing_maps:[ input_map; filter_map; output_map ]
    ~iterator_types:[ parallel; parallel; parallel; parallel; reduction; reduction; reduction ]
    ~inputs:[ input; filter ] ~outputs:[ output ] ~op_kind:"conv_2d_nchw_fchw"
    (fun kb args ->
      match args with
      | [ ie; we; oe ] ->
        let prod = Arith.mulf kb ie we in
        let sum = Arith.addf kb oe prod in
        yield kb [ sum ]
      | _ -> assert false)

let spatial_stride = function
  | Affine_map.Add (Affine_map.Dim _, Affine_map.Dim _) -> Some 1
  | Affine_map.Add (Affine_map.Mul (Affine_map.Cst s, Affine_map.Dim _), Affine_map.Dim _)
    when s > 0 ->
    Some s
  | _ -> None

let conv_stride_of (o : Ir.op) =
  if o.name <> generic_name then None
  else
    match Ir.attr o "indexing_maps" with
    | Some (Attribute.Array (Attribute.Affine im :: _)) -> (
      match im.Affine_map.exprs with
      | [ Affine_map.Dim 0; Affine_map.Dim 4; e2; e3 ] -> (
        match (spatial_stride e2, spatial_stride e3) with
        | Some a, Some b when a = b -> Some a
        | _ -> None)
      | _ -> None)
    | _ -> None

let is_generic (o : Ir.op) = o.name = generic_name

let indexing_maps o =
  List.map Attribute.get_affine (Attribute.get_array (Ir.attr_exn o "indexing_maps"))

let iterator_types o = Attribute.get_strs (Ir.attr_exn o "iterator_types")

let num_inputs o = Attribute.get_int (Ir.attr_exn o "ins")

let inputs (o : Ir.op) = Util.list_take (num_inputs o) o.operands
let outputs (o : Ir.op) = Util.list_drop (num_inputs o) o.operands

let op_kind o =
  match Ir.attr o "op_kind" with Some (Attribute.Str k) -> Some k | _ -> None

let loop_ranges (o : Ir.op) =
  let maps = indexing_maps o in
  let n_dims =
    match maps with m :: _ -> m.Affine_map.n_dims | [] -> 0
  in
  let extents = Array.make n_dims (-1) in
  List.iter2
    (fun map (operand : Ir.value) ->
      let shape = (Ty.memref_of operand.vty).shape in
      List.iteri
        (fun pos expr ->
          match expr with
          | Affine_map.Dim d -> extents.(d) <- List.nth shape pos
          | Affine_map.Cst _ | Affine_map.Add _ | Affine_map.Mul _ -> ())
        map.Affine_map.exprs)
    maps o.operands;
  Array.iteri
    (fun d e ->
      if e < 0 then
        invalid_arg (Printf.sprintf "Linalg.loop_ranges: cannot infer extent of d%d" d))
    extents;
  Array.to_list extents

let verify_generic (o : Ir.op) =
  match (Ir.attr o "indexing_maps", Ir.attr o "iterator_types", Ir.attr o "ins") with
  | Some (Attribute.Array maps), Some (Attribute.Strs iters), Some (Attribute.Int ins) ->
    let maps = List.map Attribute.get_affine maps in
    if List.length maps <> List.length o.operands then
      Error "one indexing map per operand is required"
    else if ins < 0 || ins > List.length o.operands then
      Error "invalid ins count"
    else if
      not
        (List.for_all
           (fun (m : Affine_map.t) -> m.n_dims = List.length iters)
           maps)
    then Error "indexing map dimensionality must match iterator_types"
    else if
      not
        (List.for_all (fun it -> it = parallel || it = reduction) iters)
    then Error "iterator types must be parallel or reduction"
    else if
      not
        (List.for_all2
           (fun (m : Affine_map.t) (v : Ir.value) ->
             match v.vty with
             | Ty.Memref mr -> Affine_map.n_results m = Ty.rank mr
             | Ty.Scalar _ | Ty.Func _ | Ty.Token -> false)
           maps o.operands)
    then Error "indexing map results must match operand memref ranks"
    else begin
      let block = Ir.single_block o in
      if List.length block.bargs <> List.length o.operands then
        Error "kernel must have one block argument per operand"
      else begin
        match List.rev block.body with
        | last :: _ when last.Ir.name = yield_name ->
          if List.length last.Ir.operands = List.length o.operands - ins then Ok ()
          else Error "linalg.yield must yield one value per output"
        | _ -> Error "kernel must end with linalg.yield"
      end
    end
  | _ -> Error "missing indexing_maps, iterator_types or ins attribute"
