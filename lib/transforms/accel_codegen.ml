(* One open loop: the dimension it iterates, its induction variable and
   its step (= the tile extent it exposes to enclosed code). *)
type open_loop = { dim : int; iv : Ir.value; step : int }

type loop_spec = { ls_dim : int; ls_lb : [ `Zero | `Iv of int ]; ls_extent : int; ls_step : int }
(* ls_lb = `Iv d: start at the innermost already-open loop over dim d
   (the cache-level tile origin); extent is the trip span. *)

let codegen_generic b ~emit_dma_init (op : Ir.op) =
  let trait =
    match Trait.of_op op with
    | Some t -> t
    | None -> failwith "Accel_codegen: linalg.generic has no AXI4MLIR trait"
  in
  let maps = Linalg.indexing_maps op in
  let ranges = Linalg.loop_ranges op in
  let ranges_arr = Array.of_list ranges in
  let accel_dim = Array.of_list trait.accel_dim in
  let cpu_tile = Array.of_list trait.cpu_tile in
  let operands = Array.of_list op.operands in
  let accumulate = Matcher.kernel_accumulates op in
  let host_dims = List.filter (fun d -> accel_dim.(d) > 0) trait.permutation in

  (* Loop specs: cache-level loops (for dims with a cpu tile), then the
     accelerator-tile loops, both in permuted order. *)
  let outer_specs =
    List.filter_map
      (fun d ->
        if cpu_tile.(d) > 0 then
          Some { ls_dim = d; ls_lb = `Zero; ls_extent = ranges_arr.(d); ls_step = cpu_tile.(d) }
        else None)
      host_dims
  in
  let inner_specs =
    List.map
      (fun d ->
        if cpu_tile.(d) > 0 then
          Some { ls_dim = d; ls_lb = `Iv d; ls_extent = cpu_tile.(d); ls_step = accel_dim.(d) }
        else
          Some { ls_dim = d; ls_lb = `Zero; ls_extent = ranges_arr.(d); ls_step = accel_dim.(d) })
      host_dims
    |> List.filter_map (fun x -> x)
  in
  let all_specs = Array.of_list (outer_specs @ inner_specs) in
  let total_loops = Array.length all_specs in
  let flow_d = max (Opcode.flow_depth trait.opcode_flow) 1 in
  if flow_d > total_loops then
    failwith
      (Printf.sprintf "Accel_codegen: flow depth %d exceeds %d loops" flow_d total_loops);
  let wrap_count = total_loops - flow_d in

  (* Mutable stack of open loops, innermost first. *)
  let stack : open_loop list ref = ref [] in
  let innermost_over d = List.find_opt (fun l -> l.dim = d) !stack in

  let open_loop spec body =
    let lb =
      match spec.ls_lb with
      | `Zero -> Arith.constant_index b 0
      | `Iv d -> (
        match innermost_over d with
        | Some l -> l.iv
        | None -> failwith "Accel_codegen: cache-level loop not open")
    in
    let ub =
      match spec.ls_lb with
      | `Zero -> Arith.constant_index b spec.ls_extent
      | `Iv _ -> Arith.addi b lb (Arith.constant_index b spec.ls_extent)
    in
    let step = Arith.constant_index b spec.ls_step in
    Scf.for_ b ~lb ~ub ~step (fun _b iv ->
        stack := { dim = spec.ls_dim; iv; step = spec.ls_step } :: !stack;
        body ();
        stack := List.tl !stack)
  in

  (* Tile subview of operand [arg] at the current loop stack. *)
  let subview_of_arg arg =
    let full = operands.(arg) in
    let map = List.nth maps arg in
    let contributions expr =
      (* (iv offsets, window extent) of one index expression *)
      let rec go = function
        | Affine_map.Dim d -> (
          match innermost_over d with
          | Some l -> ([ l.iv ], l.step)
          | None -> ([], ranges_arr.(d)))
        | Affine_map.Cst c ->
          if c <> 0 then failwith "Accel_codegen: non-zero constant index";
          ([], 1)
        | Affine_map.Add (x, y) ->
          let ox, ex = go x and oy, ey = go y in
          (ox @ oy, ex + ey - 1)
        | Affine_map.Mul (Affine_map.Cst s, e) | Affine_map.Mul (e, Affine_map.Cst s) ->
          (* stride-s window: scale the loop offsets, widen the extent *)
          let ox, ex = go e in
          let scaled =
            List.map (fun iv -> Arith.muli b (Arith.constant_index b s) iv) ox
          in
          (scaled, (s * (ex - 1)) + 1)
        | Affine_map.Mul _ ->
          failwith "Accel_codegen: only constant-stride multiplicative indexing"
      in
      go expr
    in
    let parts = List.map contributions map.Affine_map.exprs in
    let offsets =
      List.map
        (fun (ivs, _) ->
          match ivs with
          | [] -> Arith.constant_index b 0
          | first :: rest -> List.fold_left (Arith.addi b) first rest)
        parts
    in
    let sizes = List.map snd parts in
    Memref_d.subview b full ~offsets ~sizes
  in

  let recv_mode = if accumulate then Accel.Accumulate else Accel.Store in

  (* Emit one opcode's action list with a fresh offset chain; the last
     send-like action flushes the staged batch. *)
  let emit_opcode ~init_scope key =
    let entry =
      match Opcode.find trait.opcode_map key with
      | Some e -> e
      | None -> failwith (Printf.sprintf "Accel_codegen: undefined opcode %s" key)
    in
    let is_send_like = function
      | Opcode.Send _ | Opcode.Send_literal _ | Opcode.Send_dim _ | Opcode.Send_idx _ -> true
      | Opcode.Recv _ -> false
    in
    let flush_idx =
      List.fold_left
        (fun (i, last) a -> (i + 1, if is_send_like a then i else last))
        (0, -1) entry.actions
      |> snd
    in
    let offset = ref (Arith.constant_i32 b 0) in
    List.iteri
      (fun i action ->
        let flush = i = flush_idx in
        match action with
        | Opcode.Send_literal v ->
          let lit = Arith.constant_i32 b v in
          offset := Accel.send_literal ~flush b ~literal:lit ~offset:!offset
        | Opcode.Send arg ->
          let tile = subview_of_arg arg in
          offset := Accel.send ~flush b ~src:tile ~offset:!offset
        | Opcode.Send_dim (arg, d) ->
          let map = List.nth maps arg in
          let expr =
            match List.nth_opt map.Affine_map.exprs d with
            | Some e -> e
            | None -> failwith "Accel_codegen: send_dim dimension out of range"
          in
          let extent =
            Tiling.tile_extent_of_expr ~ranges ~accel_dim:trait.accel_dim expr
          in
          offset :=
            Accel.send_dim ~flush ~static_extent:extent b ~src:operands.(arg) ~dim:d
              ~offset:!offset
        | Opcode.Send_idx (_, d) ->
          let idx =
            match innermost_over d with
            | Some l -> l.iv
            | None ->
              if init_scope then Arith.constant_index b 0
              else failwith "Accel_codegen: send_idx outside the loop over its dim"
          in
          offset := Accel.send_idx ~flush b ~idx ~offset:!offset
        | Opcode.Recv arg ->
          let tile = subview_of_arg arg in
          offset := Accel.recv b ~mode:recv_mode ~dst:tile ~offset:!offset)
      entry.actions
  in

  (* Flow-directed emission. *)
  let rec emit_scope elems next_loop =
    List.iter
      (fun elem ->
        match elem with
        | Opcode.Op key -> emit_opcode ~init_scope:false key
        | Opcode.Scope inner ->
          if next_loop >= total_loops then
            failwith "Accel_codegen: flow scope without a matching loop";
          open_loop all_specs.(next_loop) (fun () -> emit_scope inner (next_loop + 1)))
      elems
  in
  let rec emit_wrapped i =
    if i < wrap_count then open_loop all_specs.(i) (fun () -> emit_wrapped (i + 1))
    else emit_scope trait.opcode_flow i
  in

  if emit_dma_init then begin
    let init_ops =
      Builder.nest b (fun () ->
          Accel.dma_init b ~dma_id:trait.dma_init_config.Accel_config.dma_id
            ~input_address:trait.dma_init_config.Accel_config.input_address
            ~input_buffer_size:trait.dma_init_config.Accel_config.input_buffer_size
            ~output_address:trait.dma_init_config.Accel_config.output_address
            ~output_buffer_size:trait.dma_init_config.Accel_config.output_buffer_size)
    in
    List.iter
      (fun (o : Ir.op) ->
        let o =
          if o.Ir.name = "accel.dma_init" && trait.double_buffer then
            Ir.set_attr o "double_buffer" (Attribute.Bool true)
          else o
        in
        Builder.emit b o)
      init_ops
  end;
  List.iter (emit_opcode ~init_scope:true) trait.init_opcodes;
  emit_wrapped 0

let pass =
  Pass.make "accel-codegen" (fun m ->
      let ctx = Ir.context_of m in
      let dma_done = ref false in
      let rewrite_block (blk : Ir.block) =
        let b = Builder.create ctx in
        List.iter
          (fun (op : Ir.op) ->
            if Linalg.is_generic op && Ir.has_attr op "opcode_flow" then begin
              codegen_generic b ~emit_dma_init:(not !dma_done) op;
              dma_done := true
            end
            else Builder.emit b op)
          blk.body;
        { blk with body = Builder.finish b }
      in
      (* Annotated generics only appear at function-body level in this
         flow; rebuild each function's entry block. *)
      Ir.with_module_body m
        (List.map
           (fun (f : Ir.op) ->
             if Func.is_func f then
               { f with regions = [ [ rewrite_block (Func.body_of f) ] ] }
             else f)
           (Ir.module_body m)))
