(* End-to-end correctness: every execution path (CPU lowering, native
   CPU reference, manual drivers, generated drivers at the accel and
   runtime lowering levels) must compute the same result as the pure
   oracle, for every accelerator version, flow and lowering option. *)

let versions_with_flows =
  [
    (Accel_matmul.V1, [ "Ns" ]);
    (Accel_matmul.V2, [ "Ns"; "As"; "Bs" ]);
    (Accel_matmul.V3, [ "Ns"; "As"; "Bs"; "Cs" ]);
    (Accel_matmul.V4, [ "Ns"; "As"; "Bs"; "Cs" ]);
  ]

let check_result name gold c =
  let diff = Gold.max_abs_diff gold (Memref_view.to_array c) in
  Alcotest.(check bool) (Printf.sprintf "%s (max diff %g)" name diff) true (diff < 1e-9)

let zero c = Memref_view.fill_from c (Array.make (Memref_view.num_elements c) 0.0)

let setup version ~size ~flow ~m ~n ~k =
  let accel = Presets.matmul ~version ~size ~flow () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let gold = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
  (accel, bench, a, b, c, gold)

let test_generated_all_versions_flows () =
  List.iter
    (fun (version, flows) ->
      List.iter
        (fun flow ->
          let name =
            Printf.sprintf "%s %s" (Accel_matmul.version_to_string version) flow
          in
          let _accel, bench, a, b, c, gold = setup version ~size:4 ~flow ~m:8 ~n:12 ~k:16 in
          let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:12 ~k:16 () in
          Axi4mlir.run_matmul bench ir ~a ~b ~c;
          check_result ("generated " ^ name) gold c)
        flows)
    versions_with_flows

let test_manual_all_versions_flows () =
  List.iter
    (fun (version, flows) ->
      List.iter
        (fun flow ->
          let name =
            Printf.sprintf "%s %s" (Accel_matmul.version_to_string version) flow
          in
          let accel, bench, a, b, c, gold = setup version ~size:4 ~flow ~m:8 ~n:12 ~k:16 in
          Manual_matmul.run bench.Axi4mlir.soc accel ~flow ~a ~b ~c ();
          check_result ("manual " ^ name) gold c)
        flows)
    versions_with_flows

(* Both levels run each runtime entry through the same executor, so
   every counter agrees except cycles and instructions: the accel level
   does not pay for the constants and index casts the lowering adds. *)
let test_accel_level_equals_runtime_level () =
  List.iter
    (fun (flow, double_buffer) ->
      let _accel, bench, a, b, c, gold =
        setup Accel_matmul.V3 ~size:4 ~flow ~m:8 ~n:8 ~k:8
      in
      let name = Printf.sprintf "%s%s" flow (if double_buffer then " db" else "") in
      let run options =
        zero c;
        let options = { options with Axi4mlir.double_buffer } in
        let ir = Axi4mlir.compile_matmul bench ~options ~m:8 ~n:8 ~k:8 () in
        let counters =
          Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
        in
        check_result (name ^ " result") gold c;
        counters
      in
      let runtime_level = run Axi4mlir.default_codegen in
      let accel_level =
        run { Axi4mlir.default_codegen with to_runtime_calls = false }
      in
      List.iter2
        (fun (field, r) (_, a) ->
          if field <> "cycles" && field <> "instructions" then
            Alcotest.(check (float 0.0)) (Printf.sprintf "%s: %s agree" name field) r a)
        (Perf_counters.fields runtime_level) (Perf_counters.fields accel_level))
    (List.concat_map
       (fun flow -> [ (flow, false); (flow, true) ])
       [ "Ns"; "As"; "Bs"; "Cs" ])

let test_generated_equals_manual_traffic () =
  (* with CPU tiling disabled, the generated driver issues exactly the
     transfer pattern of the hand-written one *)
  List.iter
    (fun flow ->
      let accel, bench, a, b, c, gold =
        setup Accel_matmul.V3 ~size:4 ~flow ~m:16 ~n:16 ~k:16
      in
      let manual =
        Axi4mlir.measure bench (fun () ->
            Manual_matmul.run bench.Axi4mlir.soc accel ~flow ~a ~b ~c ())
      in
      check_result (flow ^ " manual") gold c;
      zero c;
      let options = { Axi4mlir.default_codegen with cpu_tiling = false } in
      let ir = Axi4mlir.compile_matmul bench ~options ~m:16 ~n:16 ~k:16 () in
      let generated =
        Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
      in
      check_result (flow ^ " generated") gold c;
      Alcotest.(check (float 0.0))
        (flow ^ ": same DMA transactions")
        manual.Perf_counters.dma_transactions generated.Perf_counters.dma_transactions;
      Alcotest.(check (float 0.0))
        (flow ^ ": same words sent")
        manual.Perf_counters.dma_words_sent generated.Perf_counters.dma_words_sent;
      Alcotest.(check (float 0.0))
        (flow ^ ": same words received")
        manual.Perf_counters.dma_words_received generated.Perf_counters.dma_words_received)
    [ "Ns"; "As"; "Bs"; "Cs" ]

let test_v4_flexible_tiles () =
  let m, n, k = (32, 16, 64) in
  let _accel, bench, a, b, c, gold = setup Accel_matmul.V4 ~size:16 ~flow:"Cs" ~m ~n ~k in
  let options = { Axi4mlir.default_codegen with tiles = Some [ 32; 16; 64 ] } in
  let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
  Axi4mlir.run_matmul bench ~options ir ~a ~b ~c;
  check_result "v4 non-square tiles" gold c;
  (* whole problem in one tile: exactly one compute transaction chain *)
  let counters = bench.Axi4mlir.soc.Soc.counters in
  Alcotest.(check bool) "few transactions" true
    (counters.Perf_counters.dma_transactions < 15.0)

let test_v4_manual_flexible_tiles () =
  let m, n, k = (32, 16, 64) in
  let accel, bench, a, b, c, gold = setup Accel_matmul.V4 ~size:16 ~flow:"Cs" ~m ~n ~k in
  Manual_matmul.run bench.Axi4mlir.soc accel ~flow:"Cs"
    ~tiles:{ Manual_matmul.tm = 32; tn = 16; tk = 64 } ~a ~b ~c ();
  check_result "manual v4 tiles" gold c

let test_copy_spec_same_result_different_cost () =
  let _accel, bench, a, b, c, gold =
    setup Accel_matmul.V3 ~size:8 ~flow:"Ns" ~m:16 ~n:16 ~k:16
  in
  let run copy_specialization =
    zero c;
    let options = { Axi4mlir.default_codegen with copy_specialization } in
    let ir = Axi4mlir.compile_matmul bench ~options ~m:16 ~n:16 ~k:16 () in
    let counters =
      Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
    in
    check_result "copy-spec result" gold c;
    counters
  in
  let with_spec = run true in
  let without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "specialisation is faster (%.0f vs %.0f cycles)"
       with_spec.Perf_counters.cycles without.Perf_counters.cycles)
    true
    (with_spec.Perf_counters.cycles < without.Perf_counters.cycles);
  Alcotest.(check bool) "and reduces cache references" true
    (Perf_counters.cache_references with_spec < Perf_counters.cache_references without)

let test_cpu_interp_matches_native_exactly () =
  let accel = Presets.matmul ~version:Accel_matmul.V1 ~size:4 () in
  let bench = Axi4mlir.create accel in
  let m, n, k = (6, 5, 7) in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let gold = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
  let ir = Axi4mlir.compile_cpu (Axi4mlir.build_matmul_module ~m ~n ~k ()) in
  let interp_counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)
  in
  check_result "interp cpu" gold c;
  zero c;
  let native_counters =
    Axi4mlir.measure bench (fun () -> Cpu_reference.matmul bench.Axi4mlir.soc ~a ~b ~c)
  in
  check_result "native cpu" gold c;
  Alcotest.(check (float 0.0)) "cycles identical" interp_counters.Perf_counters.cycles
    native_counters.Perf_counters.cycles;
  Alcotest.(check (float 0.0)) "branches identical" interp_counters.Perf_counters.branches
    native_counters.Perf_counters.branches;
  Alcotest.(check (float 0.0)) "cache refs identical"
    (Perf_counters.cache_references interp_counters)
    (Perf_counters.cache_references native_counters)

let test_cpu_sampled_close_to_exact () =
  let accel = Presets.matmul ~version:Accel_matmul.V1 ~size:4 () in
  let bench = Axi4mlir.create accel in
  let m, n, k = (64, 32, 32) in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let gold = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
  let exact =
    Axi4mlir.measure bench (fun () ->
        Cpu_reference.matmul_optimized bench.Axi4mlir.soc ~a ~b ~c ())
  in
  zero c;
  let sampled =
    Axi4mlir.measure bench (fun () ->
        Cpu_reference.matmul_optimized bench.Axi4mlir.soc ~a ~b ~c ~sample_rows:8 ())
  in
  check_result "sampled result exact" gold c;
  let ratio = sampled.Perf_counters.cycles /. exact.Perf_counters.cycles in
  Alcotest.(check bool) (Printf.sprintf "cycles within 5%% (ratio %.3f)" ratio) true
    (ratio > 0.95 && ratio < 1.05)

let test_conv_generated () =
  List.iter
    (fun flow ->
      let accel = Presets.conv ~flow () in
      let bench = Axi4mlir.create accel in
      let n, ic, ih, iw, oc, fh, fw = (1, 4, 8, 8, 3, 3, 3) in
      let i, w, o = Axi4mlir.alloc_conv_operands bench ~n ~ic ~ih ~iw ~oc ~fh ~fw in
      let gold =
        Gold.conv2d ~n ~ic ~ih ~iw ~oc ~fh ~fw (Memref_view.to_array i)
          (Memref_view.to_array w)
      in
      let ir = Axi4mlir.build_conv_module ~n ~ic ~ih ~iw ~oc ~fh ~fw () in
      let compiled = Axi4mlir.compile bench ir in
      Axi4mlir.run_conv bench compiled ~i ~w ~o;
      check_result ("generated conv " ^ flow) gold o)
    [ "Ws"; "Os"; "Ns" ]

let test_conv_manual () =
  List.iter
    (fun flow ->
      let accel = Presets.conv ~flow () in
      let bench = Axi4mlir.create accel in
      let n, ic, ih, iw, oc, fh, fw = (1, 4, 8, 8, 3, 3, 3) in
      let i, w, o = Axi4mlir.alloc_conv_operands bench ~n ~ic ~ih ~iw ~oc ~fh ~fw in
      let gold =
        Gold.conv2d ~n ~ic ~ih ~iw ~oc ~fh ~fw (Memref_view.to_array i)
          (Memref_view.to_array w)
      in
      Manual_conv.run bench.Axi4mlir.soc accel ~flow ~input:i ~filter:w ~output:o ();
      check_result ("manual conv " ^ flow) gold o)
    [ "Ws"; "Os" ]

let test_conv_cpu_paths_agree () =
  let accel = Presets.conv () in
  let bench = Axi4mlir.create accel in
  let n, ic, ih, iw, oc, fh, fw = (1, 3, 6, 6, 2, 3, 3) in
  let i, w, o = Axi4mlir.alloc_conv_operands bench ~n ~ic ~ih ~iw ~oc ~fh ~fw in
  let gold =
    Gold.conv2d ~n ~ic ~ih ~iw ~oc ~fh ~fw (Memref_view.to_array i) (Memref_view.to_array w)
  in
  let ir = Axi4mlir.compile_cpu (Axi4mlir.build_conv_module ~n ~ic ~ih ~iw ~oc ~fh ~fw ()) in
  let interp_counters =
    Axi4mlir.measure bench (fun () ->
        Axi4mlir.run_conv bench ir ~i ~w ~o)
  in
  check_result "conv interp" gold o;
  Memref_view.fill_from o (Array.make (Memref_view.num_elements o) 0.0);
  let native_counters =
    Axi4mlir.measure bench (fun () ->
        Cpu_reference.conv2d bench.Axi4mlir.soc ~input:i ~filter:w ~output:o)
  in
  check_result "conv native" gold o;
  Alcotest.(check (float 0.0)) "conv cycles identical" interp_counters.Perf_counters.cycles
    native_counters.Perf_counters.cycles

let test_strided_conv_all_paths () =
  (* stride-2 convolution: generated, manual and CPU paths against the
     oracle, plus matcher/stride detection *)
  List.iter
    (fun stride ->
      let n, ic, ih, iw, oc, fh, fw = (1, 3, 9, 9, 2, 3, 3) in
      let accel = Presets.conv ~flow:"Ws" () in
      let bench = Axi4mlir.create accel in
      let i, w, o = Axi4mlir.alloc_conv_operands ~stride bench ~n ~ic ~ih ~iw ~oc ~fh ~fw in
      let gold =
        Gold.conv2d ~stride ~n ~ic ~ih ~iw ~oc ~fh ~fw (Memref_view.to_array i)
          (Memref_view.to_array w)
      in
      let ir = Axi4mlir.build_conv_module ~stride ~n ~ic ~ih ~iw ~oc ~fh ~fw () in
      (* the matcher recognises the strided form *)
      let generic =
        List.hd
          (List.concat_map (fun f -> Ir.find_ops Linalg.is_generic f) (Ir.module_body ir))
      in
      Alcotest.(check (option int))
        (Printf.sprintf "stride %d detected" stride)
        (Some stride) (Linalg.conv_stride_of generic);
      Alcotest.(check bool) "matcher accepts" true (Matcher.is_conv_2d_nchw_fchw generic);
      (* generated *)
      let compiled = Axi4mlir.compile bench ir in
      Axi4mlir.run_conv bench compiled ~i ~w ~o;
      check_result (Printf.sprintf "generated stride-%d conv" stride) gold o;
      (* manual *)
      zero o;
      Manual_conv.run bench.Axi4mlir.soc accel ~flow:"Rs" ~stride ~input:i ~filter:w
        ~output:o ();
      check_result (Printf.sprintf "manual stride-%d conv" stride) gold o;
      (* CPU lowering + native reference agree *)
      zero o;
      let cpu_ir = Axi4mlir.compile_cpu (Axi4mlir.build_conv_module ~stride ~n ~ic ~ih ~iw ~oc ~fh ~fw ()) in
      let interp_counters =
        Axi4mlir.measure bench (fun () ->
            Axi4mlir.run_conv bench cpu_ir ~i ~w ~o)
      in
      check_result (Printf.sprintf "cpu stride-%d conv" stride) gold o;
      zero o;
      let native_counters =
        Axi4mlir.measure bench (fun () ->
            Cpu_reference.conv2d ~stride bench.Axi4mlir.soc ~input:i ~filter:w ~output:o)
      in
      check_result "native strided conv" gold o;
      (* the 2*oh+fh muli costs one extra alu vs the addi-only form; the
         native model charges alu 2 for the spatial index arithmetic
         either way, so cycles agree only for stride 1 *)
      if stride = 1 then
        Alcotest.(check (float 0.0)) "cycles identical at stride 1"
          interp_counters.Perf_counters.cycles native_counters.Perf_counters.cycles)
    [ 1; 2; 3 ]

let test_accumulation_preserves_initial_c () =
  (* linalg matmul semantics: C += A*B, so a non-zero initial C must
     survive offload *)
  let _accel, bench, a, b, c, _ = setup Accel_matmul.V3 ~size:4 ~flow:"Cs" ~m:8 ~n:8 ~k:8 in
  let initial = Array.init 64 (fun i -> float_of_int i) in
  Memref_view.fill_from c initial;
  let gold = Array.copy initial in
  Gold.matmul_acc ~m:8 ~n:8 ~k:8 (Memref_view.to_array a) (Memref_view.to_array b) gold;
  let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:8 ~k:8 () in
  Axi4mlir.run_matmul bench ir ~a ~b ~c;
  check_result "initial C preserved" gold c

(* Property test: random tile-grid shapes, random flow, random version. *)
let prop_random_problems =
  QCheck.Test.make ~name:"generated driver matches the oracle on random problems"
    ~count:40
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 0 3))
    (fun (mt, nt, kt, pick) ->
      let version, flow =
        match pick with
        | 0 -> (Accel_matmul.V1, "Ns")
        | 1 -> (Accel_matmul.V2, "As")
        | 2 -> (Accel_matmul.V3, "Bs")
        | _ -> (Accel_matmul.V3, "Cs")
      in
      let m, n, k = (4 * mt, 4 * nt, 4 * kt) in
      let _accel, bench, a, b, c, gold = setup version ~size:4 ~flow ~m ~n ~k in
      let ir = Axi4mlir.compile_matmul bench ~m ~n ~k () in
      Axi4mlir.run_matmul bench ir ~a ~b ~c;
      Gold.max_abs_diff gold (Memref_view.to_array c) < 1e-9)

let prop_manual_random_problems =
  QCheck.Test.make ~name:"manual driver matches the oracle on random problems" ~count:40
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 0 3))
    (fun (mt, nt, kt, pick) ->
      let version, flow =
        match pick with
        | 0 -> (Accel_matmul.V1, "Ns")
        | 1 -> (Accel_matmul.V2, "Bs")
        | 2 -> (Accel_matmul.V3, "As")
        | _ -> (Accel_matmul.V3, "Cs")
      in
      let m, n, k = (4 * mt, 4 * nt, 4 * kt) in
      let accel, bench, a, b, c, gold = setup version ~size:4 ~flow ~m ~n ~k in
      Manual_matmul.run bench.Axi4mlir.soc accel ~flow ~a ~b ~c ();
      Gold.max_abs_diff gold (Memref_view.to_array c) < 1e-9)

let prop_conv_random =
  QCheck.Test.make ~name:"conv paths match the oracle on random problems" ~count:20
    QCheck.(quad (int_range 1 3) (int_range 4 8) (int_range 1 3) (int_range 1 2))
    (fun (ic, ihw, oc, fhw_pick) ->
      let fhw = (2 * fhw_pick) - 1 in
      (* 1 or 3 *)
      QCheck.assume (ihw >= fhw);
      let accel = Presets.conv () in
      let bench = Axi4mlir.create accel in
      let i, w, o =
        Axi4mlir.alloc_conv_operands bench ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw
      in
      let gold =
        Gold.conv2d ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw (Memref_view.to_array i)
          (Memref_view.to_array w)
      in
      let compiled =
        Axi4mlir.compile bench
          (Axi4mlir.build_conv_module ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw ())
      in
      Axi4mlir.run_conv bench compiled ~i ~w ~o;
      Gold.max_abs_diff gold (Memref_view.to_array o) < 1e-9)

let tests =
  [
    Alcotest.test_case "generated: all versions and flows" `Quick
      test_generated_all_versions_flows;
    Alcotest.test_case "manual: all versions and flows" `Quick test_manual_all_versions_flows;
    Alcotest.test_case "accel level == runtime level" `Quick
      test_accel_level_equals_runtime_level;
    Alcotest.test_case "generated matches manual DMA traffic" `Quick
      test_generated_equals_manual_traffic;
    Alcotest.test_case "v4 flexible tiles (generated)" `Quick test_v4_flexible_tiles;
    Alcotest.test_case "v4 flexible tiles (manual)" `Quick test_v4_manual_flexible_tiles;
    Alcotest.test_case "copy specialisation: same result, lower cost" `Quick
      test_copy_spec_same_result_different_cost;
    Alcotest.test_case "interpreter and native CPU agree exactly" `Quick
      test_cpu_interp_matches_native_exactly;
    Alcotest.test_case "sampled CPU simulation is accurate" `Quick
      test_cpu_sampled_close_to_exact;
    Alcotest.test_case "generated conv (all flows)" `Quick test_conv_generated;
    Alcotest.test_case "manual conv" `Quick test_conv_manual;
    Alcotest.test_case "conv CPU paths agree" `Quick test_conv_cpu_paths_agree;
    Alcotest.test_case "strided conv: all paths" `Quick test_strided_conv_all_paths;
    Alcotest.test_case "offload preserves initial C" `Quick
      test_accumulation_preserves_initial_c;
    QCheck_alcotest.to_alcotest prop_random_problems;
    QCheck_alcotest.to_alcotest prop_manual_random_problems;
    QCheck_alcotest.to_alcotest prop_conv_random;
  ]
