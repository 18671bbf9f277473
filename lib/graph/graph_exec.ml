(* Whole-model executor.

   Runs a validated graph against one simulated SoC, either per-kernel
   (baseline: every node resets the engine and pays every transfer) or
   under a residency plan (see {!Graph_residency}). The conv driver is
   the manual Os-flow driver generalised with the two residency
   mechanisms; host ops (residual add / resize / transpose) charge the
   same cost in both modes, so any cycle or DMA-word difference between
   the two runs is attributable to the plan. *)

type node_stat = {
  ns_node : int;
  ns_name : string;
  ns_op : string;
  ns_cycles : float;
  ns_dma_words : float;
  ns_skipped_words : int;
}

type result = {
  rs_graph : Graph_ir.t;
  rs_plan : Graph_residency.plan;
  rs_batch : int;
  rs_counters : Perf_counters.t;
  rs_node_stats : node_stat array;
  rs_skipped_words : int;
  rs_outputs : (int * float array array) list;
}

let dma_words c =
  c.Perf_counters.dma_words_sent +. c.Perf_counters.dma_words_received

let result_dma_words r = dma_words r.rs_counters

(* Centre-mapped index: where output coordinate [i] of a [dst]-long
   dimension lands in a [src]-long one (negative / out of range means
   the zero-padding border). *)
let centre_map ~src ~dst i = i + ((src - dst) / 2)

let iter_coords shape f =
  let rank = List.length shape in
  let dims = Array.of_list shape in
  let coord = Array.make rank 0 in
  let rec go d = if d = rank then f (Array.to_list coord)
    else
      for i = 0 to dims.(d) - 1 do
        coord.(d) <- i;
        go (d + 1)
      done
  in
  go 0

let run ?(batch = 1) ~residency (g : Graph_ir.t) =
  if batch < 1 then invalid_arg "Graph_exec.run: batch must be >= 1";
  (match Graph_ir.validate g with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "Graph_exec: invalid graph: %s" msg));
  let kind =
    match Graph_ir.engine_kind g with
    | Ok k -> k
    | Error msg -> failwith (Printf.sprintf "Graph_exec: %s" msg)
  in
  let accel =
    match kind with
    | `Conv -> Presets.conv ~flow:"Os" ()
    | `Matmul -> Presets.matmul ~version:Accel_matmul.V4 ~size:16 ()
  in
  let bench = Axi4mlir.create accel in
  let soc = bench.Axi4mlir.soc in
  let device = Dma_engine.device bench.Axi4mlir.engine in
  let plan =
    if residency then Graph_residency.schedule ~batch ~device g
    else Graph_residency.baseline ~batch g
  in
  (* Operand table: weights are shared across the batch, inputs and
     activations are per-image. Fills are label-seeded, so baseline and
     residency runs see identical data. *)
  let views : (int * int, Memref_view.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun tn ->
      match tn.Graph_ir.tn_kind with
      | Graph_ir.Weights ->
        let v = Axi4mlir.alloc_view bench ~label:tn.tn_name tn.tn_shape in
        for b = 0 to batch - 1 do
          Hashtbl.add views (tn.tn_id, b) v
        done
      | Graph_ir.Input ->
        for b = 0 to batch - 1 do
          let label = Printf.sprintf "%s#b%d" tn.tn_name b in
          Hashtbl.add views (tn.tn_id, b) (Axi4mlir.alloc_view bench ~label tn.tn_shape)
        done
      | Graph_ir.Activation ->
        for b = 0 to batch - 1 do
          let label = Printf.sprintf "%s#b%d" tn.tn_name b in
          Hashtbl.add views (tn.tn_id, b) (Axi4mlir.alloc_zero bench ~label tn.tn_shape)
        done)
    g.g_tensors;
  let view tid b = Hashtbl.find views (tid, b) in
  let n_nodes = Array.length g.g_nodes in
  let node_cycles = Array.make n_nodes 0.0 in
  let node_words = Array.make n_nodes 0.0 in
  let node_skipped = Array.make n_nodes 0 in
  let total_skipped = ref 0 in
  let lib = ref None in
  let the_lib () =
    match !lib with
    | Some l -> l
    | None ->
      let l =
        Dma_library.init soc ~dma_id:accel.Accel_config.dma.Accel_config.dma_id
          ~strategy:Dma_library.Specialized
      in
      lib := Some l;
      l
  in
  let skip i ~words ~what =
    Dma_library.skip_resident (the_lib ()) ~words ~what;
    node_skipped.(i) <- node_skipped.(i) + words;
    total_skipped := !total_skipped + words
  in
  (* --- the conv driver (manual Os flow + residency extensions) --- *)
  let send_two a b = Manual_conv.send_two (the_lib ()) a b in
  let send_tile lit v = Manual_conv.send_tile (the_lib ()) lit v in
  let send_literals lits =
    let l = the_lib () in
    Soc.alu soc 6;
    let offset = ref 0 in
    List.iter (fun w -> offset := Dma_library.stage_literal l w ~offset:!offset) lits;
    Dma_library.flush_send l
  in
  let recv_tile v = Manual_conv.recv_tile (the_lib ()) ~accumulate:false v in
  let loop = Manual_conv.loop soc in
  let run_conv nd (d : Graph_residency.decision) ~images =
    let dims = Graph_ir.conv_dims g nd in
    let input_id = List.nth nd.Graph_ir.nd_args 0 in
    let weights_id = List.nth nd.Graph_ir.nd_args 1 in
    let slice = dims.Graph_ir.cd_ic * dims.cd_fhw * dims.cd_fhw in
    let w_slice f =
      Memref_view.subview (view weights_id 0) ~offsets:[ f; 0; 0; 0 ]
        ~sizes:[ 1; dims.cd_ic; dims.cd_fhw; dims.cd_fhw ]
    in
    let patch b y x =
      Memref_view.subview (view input_id b)
        ~offsets:[ 0; dims.cd_stride * y; dims.cd_stride * x ]
        ~sizes:[ dims.cd_ic; dims.cd_fhw; dims.cd_fhw ]
    in
    let out_slice b f =
      Memref_view.subview (view nd.nd_out b) ~offsets:[ f; 0; 0 ]
        ~sizes:[ 1; dims.cd_oh; dims.cd_ow ]
    in
    if not residency then begin
      (* per-kernel: fresh engine state, every transfer explicit *)
      Manual_conv.send_inst (the_lib ()) Isa.reset;
      send_two Isa.cv_set_fhw dims.cd_fhw;
      send_two Isa.cv_set_ic dims.cd_ic;
      List.iter
        (fun b ->
          loop dims.cd_oc (fun f ->
              send_tile Isa.cv_load_w (w_slice f);
              loop dims.cd_oh (fun y ->
                  loop dims.cd_ow (fun x -> send_tile Isa.cv_patch (patch b y x)));
              recv_tile (out_slice b f)))
        images
    end
    else begin
      let w_region = Accel_device.find_region device "weights" in
      let act_region = Accel_device.find_region device "activations" in
      send_two Isa.cv_set_fhw dims.cd_fhw;
      send_two Isa.cv_set_ic dims.cd_ic;
      if d.Graph_residency.dc_chain_in then
        send_two Isa.cv_set_stride dims.cd_stride;
      let ensure_slice f =
        match w_region with
        | None -> send_tile Isa.cv_load_w (w_slice f)
        | Some r ->
          let tag = Printf.sprintf "w%d/f%d" weights_id f in
          if Accel_device.region_holds r ~tag then
            skip nd.nd_id ~words:(slice + 1) ~what:"weights"
          else begin
            ignore (Accel_device.region_replace r ~tag ~words:slice);
            send_tile Isa.cv_load_w (w_slice f)
          end
      in
      if d.dc_stationary then
        (* filter-major across the batch: each slice crosses once *)
        loop dims.cd_oc (fun f ->
            ensure_slice f;
            List.iter
              (fun b ->
                Soc.loop_iteration soc;
                loop dims.cd_oh (fun y ->
                    loop dims.cd_ow (fun x -> send_tile Isa.cv_patch (patch b y x)));
                recv_tile (out_slice b f))
              images)
      else
        List.iter
          (fun b ->
            if d.dc_chain_in then begin
              let in_tag = Printf.sprintf "t%d#b%d" input_id b in
              let in_words = Graph_ir.words (Graph_ir.tensor g input_id) in
              match act_region with
              | Some r when Accel_device.region_holds r ~tag:in_tag ->
                skip nd.nd_id ~words:in_words ~what:"chain"
              | _ ->
                failwith
                  (Printf.sprintf
                     "Graph_exec: %s expects a resident input but %s is not on the \
                      device (plan/executor desync)"
                     nd.nd_name in_tag)
            end;
            loop dims.cd_oc (fun f ->
                ensure_slice f;
                loop dims.cd_oh (fun y ->
                    loop dims.cd_ow (fun x ->
                        if d.dc_chain_in then
                          send_literals
                            [ Isa.cv_patch_resident; y; x ]
                        else send_tile Isa.cv_patch (patch b y x)));
                if not d.dc_keep_out then recv_tile (out_slice b f));
            if d.dc_keep_out then begin
              send_literals
                [ Isa.cv_accept; dims.cd_oc; dims.cd_oh; dims.cd_ow ];
              let out_words = Graph_ir.words (Graph_ir.tensor g nd.nd_out) in
              let out_tag = Printf.sprintf "t%d#b%d" nd.nd_out b in
              match act_region with
              | Some r -> (
                match Accel_device.region_replace r ~tag:out_tag ~words:out_words with
                | Ok () -> skip nd.nd_id ~words:out_words ~what:"chain-output"
                | Error msg ->
                  failwith (Printf.sprintf "Graph_exec: %s: %s" nd.nd_name msg))
              | None ->
                failwith
                  (Printf.sprintf
                     "Graph_exec: %s keeps its output but the device has no \
                      activations region"
                     nd.nd_name)
            end)
          images
    end
  in
  (* --- matmul nodes: the real compile+interpret pipeline --- *)
  let compiled : (string, Ir.op * Axi4mlir.codegen_options) Hashtbl.t =
    Hashtbl.create 8
  in
  let run_matmul nd b =
    let m, n, k = Graph_ir.matmul_dims g nd in
    let key = Printf.sprintf "%d,%d,%d" m n k in
    let ir, options =
      match Hashtbl.find_opt compiled key with
      | Some v -> v
      | None ->
        let options = Heuristics.best_options accel ~m ~n ~k in
        let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
        Hashtbl.add compiled key (ir, options);
        (ir, options)
    in
    let a = view (List.nth nd.Graph_ir.nd_args 0) b in
    let bv = view (List.nth nd.nd_args 1) b in
    let c = view nd.nd_out b in
    Axi4mlir.run_matmul bench ~options ir ~a ~b:bv ~c
  in
  (* --- host ops (same charges in both modes) --- *)
  let run_residual nd b =
    let x = view (List.nth nd.Graph_ir.nd_args 0) b in
    let y = view (List.nth nd.nd_args 1) b in
    let out = view nd.nd_out b in
    let xs = x.Memref_view.shape and ys = y.Memref_view.shape in
    let offs = List.map2 (fun sd dd -> (sd - dd) / 2) ys xs in
    iter_coords xs (fun coord ->
        let src = List.map2 ( + ) coord offs in
        let inside = List.for_all2 (fun i d -> i >= 0 && i < d) src ys in
        let yv = if inside then Memref_view.get y src else 0.0 in
        Memref_view.set out coord (Memref_view.get x coord +. yv));
    let n = Memref_view.num_elements out in
    Soc.charge_l1_hits soc (3 * n);
    Soc.fpu soc n;
    Soc.branch soc n
  in
  let run_resize nd b =
    let src = view (List.nth nd.Graph_ir.nd_args 0) b in
    let out = view nd.nd_out b in
    let ss = src.Memref_view.shape and os = out.Memref_view.shape in
    iter_coords os (fun coord ->
        let sc = List.map2 (fun i (sd, dd) -> centre_map ~src:sd ~dst:dd i) coord
            (List.combine ss os)
        in
        let inside = List.for_all2 (fun i d -> i >= 0 && i < d) sc ss in
        Memref_view.set out coord (if inside then Memref_view.get src sc else 0.0));
    let n = Memref_view.num_elements out in
    Soc.charge_l1_hits soc (2 * n);
    Soc.alu soc n
  in
  let run_transpose nd b =
    let src = view (List.nth nd.Graph_ir.nd_args 0) b in
    let out = view nd.nd_out b in
    (match src.Memref_view.shape with
    | [ m; n ] ->
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          Memref_view.set out [ j; i ] (Memref_view.get src [ i; j ])
        done
      done
    | _ -> failwith "Graph_exec: transpose is rank-2 only");
    let n = Memref_view.num_elements out in
    Soc.charge_l1_hits soc (2 * n);
    Soc.alu soc n
  in
  let snap () =
    let c = soc.Soc.counters in
    (c.Perf_counters.cycles, dma_words c)
  in
  let with_stats i f =
    let c0, w0 = snap () in
    f ();
    let c1, w1 = snap () in
    node_cycles.(i) <- node_cycles.(i) +. (c1 -. c0);
    node_words.(i) <- node_words.(i) +. (w1 -. w0)
  in
  let exec_node nd ~images =
    let d = plan.Graph_residency.pl_decisions.(nd.Graph_ir.nd_id) in
    match nd.Graph_ir.nd_op with
    | Graph_ir.Conv _ -> run_conv nd d ~images
    | Graph_ir.Matmul -> List.iter (run_matmul nd) images
    | Graph_ir.Residual_add -> List.iter (run_residual nd) images
    | Graph_ir.Resize -> List.iter (run_resize nd) images
    | Graph_ir.Transpose -> List.iter (run_transpose nd) images
  in
  let counters =
    Axi4mlir.measure bench (fun () ->
        if residency then begin
          (match kind with
          | `Conv -> Manual_conv.send_inst (the_lib ()) Isa.reset
          | `Matmul -> ());
          (* node-major: a node sees the whole batch before the next *)
          let all = List.init batch (fun b -> b) in
          Array.iter
            (fun nd -> with_stats nd.Graph_ir.nd_id (fun () -> exec_node nd ~images:all))
            g.g_nodes
        end
        else
          (* image-major: one full per-kernel forward pass per image *)
          for b = 0 to batch - 1 do
            Array.iter
              (fun nd ->
                with_stats nd.Graph_ir.nd_id (fun () -> exec_node nd ~images:[ b ]))
              g.g_nodes
          done)
  in
  (match !lib with Some l -> Dma_library.free l | None -> ());
  let outputs =
    List.map
      (fun tid ->
        (tid, Array.init batch (fun b -> Memref_view.to_array (view tid b))))
      g.g_outputs
  in
  {
    rs_graph = g;
    rs_plan = plan;
    rs_batch = batch;
    rs_counters = counters;
    rs_node_stats =
      Array.init n_nodes (fun i ->
          {
            ns_node = i;
            ns_name = g.g_nodes.(i).Graph_ir.nd_name;
            ns_op = Graph_ir.op_name g.g_nodes.(i).Graph_ir.nd_op;
            ns_cycles = node_cycles.(i);
            ns_dma_words = node_words.(i);
            ns_skipped_words = node_skipped.(i);
          });
    rs_skipped_words = !total_skipped;
    rs_outputs = outputs;
  }

(* Bit-level equality: deep models can saturate to inf/nan, and
   structural [=] reports [nan <> nan] even when the two runs produced
   the exact same bytes. Comparing the IEEE-754 bit patterns is the
   comparison the "bit-identity" gate actually advertises. *)
let float_array_bits_equal (x : float array) (y : float array) =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then ok := false)
    x;
  !ok

let outputs_equal a b =
  List.length a.rs_outputs = List.length b.rs_outputs
  && List.for_all2
       (fun (ta, xs) (tb, ys) ->
         ta = tb
         && Array.length xs = Array.length ys
         && Array.for_all2 float_array_bits_equal xs ys)
       a.rs_outputs b.rs_outputs
