type tensor_kind = Input | Weights | Activation

type tensor = {
  tn_id : int;
  tn_name : string;
  tn_kind : tensor_kind;
  tn_shape : int list;
}

type op =
  | Conv of { stride : int }
  | Matmul
  | Residual_add
  | Resize
  | Transpose

type node = {
  nd_id : int;
  nd_name : string;
  nd_op : op;
  nd_args : int list;
  nd_out : int;
}

type t = {
  g_name : string;
  g_tensors : tensor array;
  g_nodes : node array;
  g_outputs : int list;
}

let kind_to_string = function
  | Input -> "input"
  | Weights -> "weights"
  | Activation -> "activation"

let op_name = function
  | Conv _ -> "conv"
  | Matmul -> "matmul"
  | Residual_add -> "residual_add"
  | Resize -> "resize"
  | Transpose -> "transpose"

let is_accel = function Conv _ | Matmul -> true | _ -> false

let tensor g id = g.g_tensors.(id)
let words tn = List.fold_left ( * ) 1 tn.tn_shape

let consumers g tid =
  Array.to_list g.g_nodes |> List.filter (fun nd -> List.mem tid nd.nd_args)

type conv_dims = {
  cd_ic : int;
  cd_ih : int;
  cd_iw : int;
  cd_oc : int;
  cd_fhw : int;
  cd_stride : int;
  cd_oh : int;
  cd_ow : int;
}

let conv_dims g nd =
  match (nd.nd_op, nd.nd_args) with
  | Conv { stride }, [ input; weights ] -> (
    match ((tensor g input).tn_shape, (tensor g weights).tn_shape, (tensor g nd.nd_out).tn_shape) with
    | [ ic; ih; iw ], [ oc; _; fh; _ ], [ _; oh; ow ] ->
      { cd_ic = ic; cd_ih = ih; cd_iw = iw; cd_oc = oc; cd_fhw = fh; cd_stride = stride;
        cd_oh = oh; cd_ow = ow }
    | _ -> failwith (Printf.sprintf "graph: %s: malformed conv shapes" nd.nd_name))
  | _ -> failwith (Printf.sprintf "graph: %s is not a conv node" nd.nd_name)

let matmul_dims g nd =
  match (nd.nd_op, nd.nd_args) with
  | Matmul, [ a; _b ] -> (
    match ((tensor g a).tn_shape, (tensor g nd.nd_out).tn_shape) with
    | [ m; k ], [ _; n ] -> (m, n, k)
    | _ -> failwith (Printf.sprintf "graph: %s: malformed matmul shapes" nd.nd_name))
  | _ -> failwith (Printf.sprintf "graph: %s is not a matmul node" nd.nd_name)

let node_macs g nd =
  match nd.nd_op with
  | Conv _ ->
    let d = conv_dims g nd in
    d.cd_oc * d.cd_oh * d.cd_ow * d.cd_ic * d.cd_fhw * d.cd_fhw
  | Matmul ->
    let m, n, k = matmul_dims g nd in
    m * n * k
  | Residual_add | Resize | Transpose -> 0

let macs g = Array.fold_left (fun acc nd -> acc + node_macs g nd) 0 g.g_nodes

let node_workload g nd =
  match nd.nd_op with
  | Conv { stride } ->
    let d = conv_dims g nd in
    Some
      (Tune_workload.Conv
         { ic = d.cd_ic; ih = d.cd_ih; iw = d.cd_iw; oc = d.cd_oc; fhw = d.cd_fhw; stride })
  | Matmul ->
    let m, n, k = matmul_dims g nd in
    Some (Tune_workload.Matmul { m; n; k })
  | Residual_add | Resize | Transpose -> None

(* Which accelerator a graph's offloaded nodes target. Mixed graphs are
   rejected: the simulated SoC attaches one engine per run. *)
let engine_kind g =
  let has_conv = ref false and has_mm = ref false in
  Array.iter
    (fun nd ->
      match nd.nd_op with
      | Conv _ -> has_conv := true
      | Matmul -> has_mm := true
      | _ -> ())
    g.g_nodes;
  match (!has_conv, !has_mm) with
  | true, true -> Error "graph mixes conv and matmul nodes (one engine per run)"
  | true, false -> Ok `Conv
  | false, true -> Ok `Matmul
  | false, false -> Error "graph has no accelerated nodes"

let conv_out edge ~fhw ~stride = ((edge - fhw) / stride) + 1

let validate g =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n_tensors = Array.length g.g_tensors in
  let produced = Array.make n_tensors false in
  let rec check_nodes i =
    if i >= Array.length g.g_nodes then Ok ()
    else begin
      let nd = g.g_nodes.(i) in
      if nd.nd_id <> i then err "node %s: id %d out of order (expected %d)" nd.nd_name nd.nd_id i
      else if List.exists (fun a -> a < 0 || a >= n_tensors) (nd.nd_out :: nd.nd_args) then
        err "node %s: tensor id out of range" nd.nd_name
      else begin
        let out = tensor g nd.nd_out in
        let arg_ready a =
          match (tensor g a).tn_kind with
          | Activation -> produced.(a)
          | Input | Weights -> true
        in
        if out.tn_kind <> Activation then
          err "node %s: output %s is not an activation" nd.nd_name out.tn_name
        else if produced.(nd.nd_out) then
          err "node %s: output %s produced twice" nd.nd_name out.tn_name
        else if not (List.for_all arg_ready nd.nd_args) then
          err "node %s: uses an activation produced later (not topologically ordered)"
            nd.nd_name
        else
          let shapes = List.map (fun a -> (tensor g a).tn_shape) nd.nd_args in
          let shape_ok =
            match (nd.nd_op, shapes, out.tn_shape) with
            | Conv { stride }, [ [ ic; ih; iw ]; [ oc; wic; fh; fw ] ], [ ooc; oh; ow ] ->
              if stride < 1 then Error "stride must be >= 1"
              else if (tensor g (List.nth nd.nd_args 1)).tn_kind <> Weights then
                Error "conv second operand must be a weights tensor"
              else if wic <> ic then Error "filter input channels mismatch"
              else if fh <> fw then Error "square filters only"
              else if ih < fh || iw < fw then Error "input smaller than the filter"
              else if
                ooc <> oc
                || oh <> conv_out ih ~fhw:fh ~stride
                || ow <> conv_out iw ~fhw:fw ~stride
              then Error "output shape mismatch"
              else Ok ()
            | Matmul, [ [ m; k ]; [ k'; n ] ], [ om; on ] ->
              if k <> k' then Error "inner dimensions mismatch"
              else if om <> m || on <> n then Error "output shape mismatch"
              else Ok ()
            | Residual_add, [ x; y ], out_shape ->
              if List.length x <> List.length y then Error "rank mismatch"
              else if List.hd x <> List.hd y then Error "leading dimension mismatch"
              else if out_shape <> x then Error "output must take the first operand's shape"
              else Ok ()
            | Resize, [ src ], out_shape ->
              if List.length src <> 3 || List.length out_shape <> 3 then
                Error "resize is rank-3 only"
              else Ok ()
            | Transpose, [ [ m; n ] ], [ on; om ] ->
              if om <> m || on <> n then Error "output shape mismatch" else Ok ()
            | _ -> Error "operand count/rank mismatch"
          in
          match shape_ok with
          | Error msg -> err "node %s (%s): %s" nd.nd_name (op_name nd.nd_op) msg
          | Ok () ->
            produced.(nd.nd_out) <- true;
            check_nodes (i + 1)
      end
    end
  in
  match check_nodes 0 with
  | Error _ as e -> e
  | Ok () ->
    if g.g_outputs = [] then err "graph %s has no outputs" g.g_name
    else if
      List.exists (fun o -> o < 0 || o >= n_tensors || not produced.(o)) g.g_outputs
    then err "graph %s: an output tensor is never produced" g.g_name
    else Ok ()

let to_json g =
  let tensor_json tn =
    Json.Obj
      [
        ("id", Json.Int tn.tn_id);
        ("name", Json.String tn.tn_name);
        ("kind", Json.String (kind_to_string tn.tn_kind));
        ("shape", Json.List (List.map (fun d -> Json.Int d) tn.tn_shape));
      ]
  in
  let node_json nd =
    Json.Obj
      ([
         ("id", Json.Int nd.nd_id);
         ("name", Json.String nd.nd_name);
         ("op", Json.String (op_name nd.nd_op));
       ]
      @ (match nd.nd_op with
        | Conv { stride } -> [ ("stride", Json.Int stride) ]
        | _ -> [])
      @ [
          ("args", Json.List (List.map (fun a -> Json.Int a) nd.nd_args));
          ("out", Json.Int nd.nd_out);
        ])
  in
  Json.Obj
    [
      ("name", Json.String g.g_name);
      ("tensors", Json.List (Array.to_list (Array.map tensor_json g.g_tensors)));
      ("nodes", Json.List (Array.to_list (Array.map node_json g.g_nodes)));
      ("outputs", Json.List (List.map (fun o -> Json.Int o) g.g_outputs));
    ]
