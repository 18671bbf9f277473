(* A heterogeneous SoC: two accelerators behind two DMA engines driven
   from one application function — a v3_16 MatMul engine on DMA id 0
   and the Conv2D engine on DMA id 1 (the multi-accelerator case the
   paper's dma_init_config anticipates).

   The application runs a small CNN block: conv -> (im2col-free) conv,
   then a matmul classifier head; each linalg op is matched and
   offloaded to its own engine by running the two accelerators'
   pipelines in sequence.

     dune exec examples/heterogeneous_soc.exe *)

let () =
  let host = Host_config.pynq_z2 in
  let matmul_accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Cs" () in
  let conv_accel =
    let base = Presets.conv ~flow:"Os" () in
    { base with Accel_config.dma = { base.Accel_config.dma with Accel_config.dma_id = 1 } }
  in
  let soc = Soc.create ~cache_geometries:host.Host_config.caches () in
  ignore (Accel_config.attach soc matmul_accel);
  ignore (Accel_config.attach soc conv_accel);
  Printf.printf "SoC: %s on DMA 0, %s on DMA 1\n\n" matmul_accel.Accel_config.accel_name
    conv_accel.Accel_config.accel_name;

  (* Block: I(1,8,18,18) * W1(16,8,3,3) -> F(1,16,16,16);
     flattened F (16,256) x classifier (256... keep matmul shapes
     divisible by 16: G(256,256) as "features x weights". *)
  let ic, ihw, oc, fhw = (8, 18, 16, 3) in
  let ohw = ihw - fhw + 1 in
  let m, n, k = (oc * ohw, 16, ohw) in
  let f =
    Func.func_op (Ir.context ()) ~name:"cnn_block"
      ~args:
        [
          Ty.memref [ 1; ic; ihw; ihw ] Ty.F32;
          Ty.memref [ oc; ic; fhw; fhw ] Ty.F32;
          Ty.memref [ 1; oc; ohw; ohw ] Ty.F32;
          Ty.memref [ m; k ] Ty.F32;
          Ty.memref [ k; n ] Ty.F32;
          Ty.memref [ m; n ] Ty.F32;
        ]
      (fun b args ->
        match args with
        | [ i; w; o; a; bv; c ] ->
          ignore (Linalg.conv_2d_nchw_fchw b ~input:i ~filter:w ~output:o);
          ignore (Linalg.matmul b ~a ~b:bv ~c);
          Func.return_op b []
        | _ -> assert false)
  in
  let modul = Ir.module_op [ f ] in

  let compiled =
    Pass.run_pipeline
      (Pipeline.passes (Pipeline.make ~accel:matmul_accel ~host ())
      @ Pipeline.passes (Pipeline.make ~accel:conv_accel ~host ()))
      modul
  in
  Printf.printf "compiled: %d runtime calls, %d dma_init (one per engine)\n"
    (Ir.count_ops (fun o -> o.Ir.name = "func.call") compiled)
    (Ir.count_ops
       (fun o ->
         o.Ir.name = "func.call"
         && Ir.attr o "callee" = Some (Attribute.Str (Runtime_abi.name Dma_init)))
       compiled);

  let alloc label shape =
    let n_elems = List.fold_left ( * ) 1 shape in
    let buf = Sim_memory.alloc soc.Soc.memory ~label n_elems in
    Gold.fill_deterministic ~seed:(Hashtbl.hash label) buf.Sim_memory.data;
    Memref_view.of_buffer buf shape
  in
  let i = alloc "I" [ 1; ic; ihw; ihw ]
  and w = alloc "W" [ oc; ic; fhw; fhw ]
  and o = alloc "F" [ 1; oc; ohw; ohw ]
  and a = alloc "A" [ m; k ]
  and bv = alloc "B" [ k; n ]
  and c = alloc "C" [ m; n ] in
  Memref_view.fill_from o (Array.make (Memref_view.num_elements o) 0.0);
  Memref_view.fill_from c (Array.make (m * n) 0.0);
  let gold_o =
    Gold.conv2d ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw (Memref_view.to_array i)
      (Memref_view.to_array w)
  in
  let gold_c = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array bv) in

  let interp = Interp.create ~copy_strategy:Dma_library.Specialized soc compiled in
  Soc.reset_run_state soc;
  ignore
    (Interp.invoke interp "cnn_block"
       [ Interp.M i; Interp.M w; Interp.M o; Interp.M a; Interp.M bv; Interp.M c ]);
  Printf.printf "task clock: %.3f ms, %.0f DMA transactions across both engines\n"
    (Soc.now_ms soc) soc.Soc.counters.Perf_counters.dma_transactions;
  Printf.printf "conv correct:   %b\n"
    (Gold.max_abs_diff gold_o (Memref_view.to_array o) < 1e-9);
  Printf.printf "matmul correct: %b\n"
    (Gold.max_abs_diff gold_c (Memref_view.to_array c) < 1e-9)
