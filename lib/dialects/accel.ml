let dma_init_name = "accel.dma_init"
let dma_free_name = "accel.dma_free"
let send_literal_name = "accel.sendLiteral"
let send_name = "accel.send"
let send_dim_name = "accel.sendDim"
let send_idx_name = "accel.sendIdx"
let recv_name = "accel.recv"
let start_send_name = "accel.start_send"
let start_recv_name = "accel.start_recv"
let wait_name = "accel.wait"

let op_names =
  [
    dma_init_name;
    dma_free_name;
    send_literal_name;
    send_name;
    send_dim_name;
    send_idx_name;
    recv_name;
    start_send_name;
    start_recv_name;
    wait_name;
  ]

let flush_attr flush = if flush then [ ("flush", Attribute.Bool true) ] else []

let dma_init b ~dma_id ~input_address ~input_buffer_size ~output_address
    ~output_buffer_size =
  let operands =
    List.map (Arith.constant_i32 b)
      [ dma_id; input_address; input_buffer_size; output_address; output_buffer_size ]
  in
  Builder.emit b (Ir.op dma_init_name ~operands)

let dma_free b = Builder.emit b (Ir.op dma_free_name)

let offset_result b = Builder.fresh b Ty.i32

let send_literal ?(flush = false) b ~literal ~offset =
  Builder.emit_result b
    (Ir.op send_literal_name ~operands:[ literal; offset ]
       ~results:[ offset_result b ] ~attrs:(flush_attr flush))

let send ?(flush = true) b ~src ~offset =
  Builder.emit_result b
    (Ir.op send_name ~operands:[ src; offset ] ~results:[ offset_result b ]
       ~attrs:(flush_attr flush))

let send_dim ?(flush = false) ?static_extent b ~src ~dim ~offset =
  let extent_attr =
    match static_extent with
    | None -> []
    | Some e -> [ ("static_extent", Attribute.Int e) ]
  in
  Builder.emit_result b
    (Ir.op send_dim_name ~operands:[ src; offset ] ~results:[ offset_result b ]
       ~attrs:((("dim", Attribute.Int dim) :: extent_attr) @ flush_attr flush))

let send_idx ?(flush = false) b ~idx ~offset =
  Builder.emit_result b
    (Ir.op send_idx_name ~operands:[ idx; offset ] ~results:[ offset_result b ]
       ~attrs:(flush_attr flush))

type recv_mode = Store | Accumulate

let mode_string = function Store -> "store" | Accumulate -> "accumulate"

let recv b ~mode ~dst ~offset =
  Builder.emit_result b
    (Ir.op recv_name ~operands:[ dst; offset ] ~results:[ offset_result b ]
       ~attrs:[ ("mode", Attribute.Str (mode_string mode)) ])

(* Non-blocking halves: [start_send] flushes everything staged since
   the last flush as one background transfer; [start_recv] programs a
   background receive into [dst]; both return an [!accel.token] that a
   later [wait] consumes (exactly once — the verifier enforces it). *)
let start_send b =
  Builder.emit_result b (Ir.op start_send_name ~results:[ Builder.fresh b Ty.token ])

let start_recv b ~mode ~dst =
  Builder.emit_result b
    (Ir.op start_recv_name ~operands:[ dst ]
       ~results:[ Builder.fresh b Ty.token ]
       ~attrs:[ ("mode", Attribute.Str (mode_string mode)) ])

let wait b ~token = Builder.emit b (Ir.op wait_name ~operands:[ token ])

let recv_mode_of (o : Ir.op) =
  match Ir.attr_or o "mode" (Attribute.Str "store") with
  | Attribute.Str "accumulate" -> Accumulate
  | Attribute.Str "store" -> Store
  | a ->
    invalid_arg
      (Printf.sprintf "Accel.recv_mode_of: invalid mode %s" (Attribute.to_string a))

let is_flush (o : Ir.op) =
  match Ir.attr_or o "flush" Attribute.Unit with Attribute.Bool b -> b | _ -> false

let is_accel (o : Ir.op) = List.mem o.name op_names

let is_i32 (v : Ir.value) = Ty.equal v.vty Ty.i32
let is_memref (v : Ir.value) = match v.vty with Ty.Memref _ -> true | _ -> false

let verify_dma_init (o : Ir.op) =
  if List.length o.operands = 5 && List.for_all is_i32 o.operands then Ok ()
  else Error "dma_init requires five i32 operands"

let verify_offset_chain ~data (o : Ir.op) =
  match (o.operands, o.results) with
  | [ first; offset ], [ r ] ->
    if not (is_i32 offset) then Error "offset operand must be i32"
    else if not (is_i32 r) then Error "result offset must be i32"
    else if data && not (is_memref first) then Error "payload operand must be a memref"
    else if (not data) && not (is_i32 first || Ty.equal first.Ir.vty Ty.index) then
      Error "scalar payload must be i32 or index"
    else Ok ()
  | _ -> Error "expected (payload, offset) operands and one offset result"

let is_token (v : Ir.value) = Ty.equal v.Ir.vty Ty.token

let verify_start_send (o : Ir.op) =
  match (o.operands, o.results) with
  | [], [ r ] when is_token r -> Ok ()
  | _ -> Error "start_send takes no operands and returns one !accel.token"

let verify_start_recv (o : Ir.op) =
  match (o.operands, o.results) with
  | [ dst ], [ r ] when is_memref dst && is_token r -> Ok ()
  | _ -> Error "start_recv requires one memref operand and one !accel.token result"

let verify_wait (o : Ir.op) =
  match (o.operands, o.results) with
  | [ tok ], [] when is_token tok -> Ok ()
  | _ -> Error "wait consumes exactly one !accel.token and returns nothing"

let send_dim_extent (o : Ir.op) =
  match Ir.attr_or o "static_extent" Attribute.Unit with
  | Attribute.Int e -> e
  | _ -> (
    match o.operands with
    | src :: _ -> (
      let m = Ty.memref_of src.Ir.vty in
      let dim =
        match Ir.attr o "dim" with
        | Some (Attribute.Int d) -> d
        | Some _ | None -> invalid_arg "accel.sendDim: missing dim attribute"
      in
      match List.nth_opt m.Ty.shape dim with
      | Some e -> e
      | None -> invalid_arg "accel.sendDim: dim out of range")
    | [] -> invalid_arg "accel.sendDim: missing operand")
