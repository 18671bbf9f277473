(* Multiple accelerators in one application: a MatMul engine (DMA id 0)
   and a Conv2D engine (DMA id 1) driven from one function, compiled by
   running the two accelerators' pipelines in sequence (each matches
   its own op kind). The paper's dma_init_config explicitly allows this
   ("if multiple or different accelerators are present, they would have
   different values in this field"). *)

let conv_on_engine_1 () =
  let base = Presets.conv ~flow:"Ws" () in
  { base with Accel_config.dma = { base.Accel_config.dma with Accel_config.dma_id = 1 } }

let build_mixed_module ~m ~n ~k ~ic ~ihw ~oc ~fhw =
  let ohw = ihw - fhw + 1 in
  let f =
    Func.func_op (Ir.context ()) ~name:"mixed"
      ~args:
        [
          Ty.memref [ m; k ] Ty.F32;
          Ty.memref [ k; n ] Ty.F32;
          Ty.memref [ m; n ] Ty.F32;
          Ty.memref [ 1; ic; ihw; ihw ] Ty.F32;
          Ty.memref [ oc; ic; fhw; fhw ] Ty.F32;
          Ty.memref [ 1; oc; ohw; ohw ] Ty.F32;
        ]
      (fun b args ->
        match args with
        | [ a; bv; c; i; w; o ] ->
          ignore (Linalg.matmul b ~a ~b:bv ~c);
          ignore (Linalg.conv_2d_nchw_fchw b ~input:i ~filter:w ~output:o);
          Func.return_op b []
        | _ -> assert false)
  in
  Ir.module_op [ f ]

let test_two_accelerators () =
  let host = Host_config.pynq_z2 in
  let matmul_accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let conv_accel = conv_on_engine_1 () in
  let soc = Soc.create ~cache_geometries:host.Host_config.caches () in
  ignore (Accel_config.attach soc matmul_accel);
  ignore (Accel_config.attach soc conv_accel);
  let m, n, k = (8, 8, 8) in
  let ic, ihw, oc, fhw = (3, 6, 2, 3) in
  let modul = build_mixed_module ~m ~n ~k ~ic ~ihw ~oc ~fhw in
  (* two pipelines, one per accelerator; each annotates only its op kind *)
  let compiled =
    Pass.run_pipeline
      (Pipeline.passes (Pipeline.make ~accel:matmul_accel ~host ())
      @ Pipeline.passes (Pipeline.make ~accel:conv_accel ~host ()))
      modul
  in
  (* one dma_init per engine *)
  Alcotest.(check int) "two dma_init calls" 2
    (Ir.count_ops
       (fun o ->
         o.Ir.name = "func.call"
         && Ir.attr o "callee" = Some (Attribute.Str (Runtime_abi.name Dma_init)))
       compiled);
  Alcotest.(check int) "no linalg left" 0 (Ir.count_ops Linalg.is_generic compiled);
  (* allocate operands and run *)
  let alloc label shape =
    let n_elems = List.fold_left ( * ) 1 shape in
    let buf = Sim_memory.alloc soc.Soc.memory ~label n_elems in
    Gold.fill_deterministic ~seed:(Hashtbl.hash label) buf.Sim_memory.data;
    Memref_view.of_buffer buf shape
  in
  let a = alloc "a" [ m; k ]
  and b = alloc "b" [ k; n ]
  and c = alloc "c" [ m; n ]
  and i = alloc "i" [ 1; ic; ihw; ihw ]
  and w = alloc "w" [ oc; ic; fhw; fhw ]
  and o = alloc "o" [ 1; oc; ihw - fhw + 1; ihw - fhw + 1 ] in
  Memref_view.fill_from c (Array.make (m * n) 0.0);
  Memref_view.fill_from o (Array.make (Memref_view.num_elements o) 0.0);
  let gold_c = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
  let gold_o =
    Gold.conv2d ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw (Memref_view.to_array i)
      (Memref_view.to_array w)
  in
  let interp = Interp.create ~copy_strategy:Dma_library.Specialized soc compiled in
  ignore
    (Interp.invoke interp "mixed"
       [ Interp.M a; Interp.M b; Interp.M c; Interp.M i; Interp.M w; Interp.M o ]);
  Alcotest.(check bool) "matmul correct (engine 0)" true
    (Gold.max_abs_diff gold_c (Memref_view.to_array c) < 1e-9);
  Alcotest.(check bool) "conv correct (engine 1)" true
    (Gold.max_abs_diff gold_o (Memref_view.to_array o) < 1e-9)

let test_same_engine_two_kernels_reselect () =
  (* the interpreter must not re-pay driver bring-up when the same
     engine is re-initialised *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let bench = Axi4mlir.create accel in
  let soc = bench.Axi4mlir.soc in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:4 ~n:4 ~k:4 in
  let ir = Axi4mlir.compile_matmul bench ~m:4 ~n:4 ~k:4 () in
  let interp = Interp.create ~copy_strategy:Dma_library.Specialized soc ir in
  Soc.reset_run_state soc;
  ignore (Interp.invoke interp "matmul_call" [ Interp.M a; Interp.M b; Interp.M c ]);
  let first = soc.Soc.counters.Perf_counters.cycles in
  ignore (Interp.invoke interp "matmul_call" [ Interp.M a; Interp.M b; Interp.M c ]);
  let second = soc.Soc.counters.Perf_counters.cycles -. first in
  Alcotest.(check bool)
    (Printf.sprintf "second kernel avoids bring-up (%.0f vs %.0f)" second first)
    true
    (second < first -. (Dma_library.init_cycles /. 2.0))

let tests =
  [
    Alcotest.test_case "matmul + conv on two engines" `Quick test_two_accelerators;
    Alcotest.test_case "same engine re-selected without re-init" `Quick
      test_same_engine_two_kernels_reselect;
  ]
