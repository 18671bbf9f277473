exception Rejected of string

let ( let* ) r f = Result.bind r f

let pass_name = "match-and-annotate"

(* One Applied remark per opcode the flow places above the innermost
   loop: that operand tile stays stationary in the accelerator across
   the loops below it, which is the data-movement saving the paper's
   Ns/Bs flows exist for. Guarded on [Remarks.enabled] because the
   per-operand footprint computation is not free. *)
let emit_success_remarks ~(accel : Accel_config.t) ~maps ~ranges ~accel_dim ~flow
    ~flow_name ~cpu_tile op =
  if Remarks.enabled () then begin
    Remarks.emit ~kind:Remarks.Applied ~pass:pass_name ~name:"offload"
      ~loc:op.Ir.name
      ~args:
        [
          ("accel", Remarks.Str accel.Accel_config.accel_name);
          ("flow", Remarks.Str flow_name);
          ("accel_dims", Remarks.Str (Util.string_of_list string_of_int accel_dim));
        ]
      (Printf.sprintf "offloading to %s with opcode flow %s"
         accel.Accel_config.accel_name flow_name);
    let per_operand = Tiling.operand_tile_elems ~maps ~ranges ~accel_dim in
    let flow_d = Opcode.flow_depth flow in
    List.iter
      (fun (key, depth) ->
        if depth < flow_d then
          match Opcode.find accel.opcode_map key with
          | None -> ()
          | Some entry ->
            let args =
              Opcode.sends_of_actions entry.Opcode.actions
              @ Opcode.recvs_of_actions entry.Opcode.actions
            in
            if args <> [] then begin
              let words =
                List.fold_left
                  (fun acc a ->
                    acc + Option.value ~default:0 (List.nth_opt per_operand a))
                  0 args
              in
              Remarks.emit ~kind:Remarks.Applied ~pass:pass_name
                ~name:"hoist-transfer" ~loc:op.Ir.name
                ~args:
                  [
                    ("opcode", Remarks.Str key);
                    ("depth", Remarks.Int depth);
                    ("flow_depth", Remarks.Int flow_d);
                    ("words_per_call", Remarks.Int words);
                  ]
                (Printf.sprintf
                   "hoisted opcode %s to loop depth %d of %d: its %d-word tile \
                    stays stationary across the inner loop(s)"
                   key depth flow_d words)
            end)
      (Opcode.flow_placements flow);
    if List.exists (fun t -> t > 0) cpu_tile then
      Remarks.emit ~kind:Remarks.Applied ~pass:pass_name ~name:"cpu-tiling"
        ~loc:op.Ir.name
        ~args:[ ("tiles", Remarks.Str (Util.string_of_list string_of_int cpu_tile)) ]
        "added a cache-blocking CPU tiling level above the accelerator tiles"
  end

let annotate_op ~(accel : Accel_config.t) ~host ~(options : Codegen_options.t) op =
  let maps = Linalg.indexing_maps op in
  let ranges = Linalg.loop_ranges op in
  let* accel_dim =
    Tiling.resolve_accel_dims accel ~maps ~ranges ?tile_override:options.tiles ()
  in
  let flow_name =
    match options.flow with Some f -> f | None -> accel.selected_flow
  in
  let* flow =
    match List.assoc_opt flow_name accel.opcode_flows with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "flow %s is not defined for %s" flow_name accel.accel_name)
  in
  let permutation =
    Tiling.derive_permutation ~flow ~opcode_map:accel.opcode_map ~maps ~accel_dim
  in
  let cpu_tile =
    if options.cpu_tiling then begin
      let safe_dims =
        Tiling.safe_cpu_tiling_dims ~flow ~opcode_map:accel.opcode_map ~maps ~accel_dim
      in
      let footprint_bytes =
        List.fold_left
          (fun acc (v : Ir.value) ->
            let mr = Ty.memref_of v.vty in
            acc + (Ty.num_elements mr * Ty.dtype_size_bytes mr.Ty.elem))
          0 op.Ir.operands
      in
      Tiling.choose_cpu_tiles host ~ranges ~accel_dim ~safe_dims ~footprint_bytes
    end
    else List.map (fun _ -> 0) ranges
  in
  let trait =
    {
      Trait.dma_init_config = accel.dma;
      init_opcodes = accel.init_opcodes;
      accel_dim;
      permutation;
      opcode_map = accel.opcode_map;
      opcode_flow = flow;
      cpu_tile;
      double_buffer = options.double_buffer;
    }
  in
  let host_loops =
    List.length (List.filter (fun d -> d > 0) accel_dim)
    + List.length (List.filter (fun t -> t > 0) cpu_tile)
  in
  let* () =
    if Opcode.flow_depth flow > max host_loops 1 then
      Error
        (Printf.sprintf "flow %s is deeper (%d) than the loop nest (%d)" flow_name
           (Opcode.flow_depth flow) host_loops)
    else Ok ()
  in
  let* () =
    Trait.validate trait ~n_dims:(List.length ranges) ~n_args:(List.length op.Ir.operands)
  in
  emit_success_remarks ~accel ~maps ~ranges ~accel_dim ~flow ~flow_name ~cpu_tile op;
  Ok (Trait.attach op trait)

let pass ~accel ~host ?(options = Codegen_options.default) () =
  let rewrite op =
    if
      Matcher.matches_kind accel.Accel_config.op_kind op
      && not (Ir.has_attr op "opcode_flow")
    then begin
      match annotate_op ~accel ~host ~options op with
      | Ok annotated -> annotated
      | Error reason ->
        (* Remark first: with [--remarks] it is how the user learns why
           compilation stopped. *)
        Remarks.emit ~kind:Remarks.Missed ~pass:pass_name ~name:"not-offloaded"
          ~loc:op.Ir.name
          ~args:[ ("accel", Remarks.Str accel.Accel_config.accel_name) ]
          (Printf.sprintf "op not offloaded: %s" reason);
        raise
          (Rejected
             (Printf.sprintf "AXI4MLIR: cannot offload: %s: %s"
                accel.Accel_config.accel_name reason))
    end
    else op
  in
  Pass.make pass_name (fun m -> Ir.map_nested rewrite m)
