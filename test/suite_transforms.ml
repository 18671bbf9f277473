(* Tests for the compiler passes: matching, tiling decisions,
   permutation derivation, codegen structure, runtime lowering and copy
   specialisation. *)

let host = Host_config.pynq_z2

let matmul_generic ?(m = 8) ?(n = 8) ?(k = 8) () =
  let modul = Axi4mlir.build_matmul_module ~m ~n ~k () in
  match
    List.concat_map (fun f -> Ir.find_ops Linalg.is_generic f) (Ir.module_body modul)
  with
  | [ g ] -> (modul, g)
  | _ -> Alcotest.fail "expected one generic"

let test_matcher_positive () =
  let _, g = matmul_generic () in
  Alcotest.(check bool) "matmul matches" true (Matcher.is_matmul g);
  Alcotest.(check bool) "not a conv" false (Matcher.is_conv_2d_nchw_fchw g);
  Alcotest.(check bool) "kind dispatch" true (Matcher.matches_kind "matmul" g);
  Alcotest.(check bool) "unknown kind" false (Matcher.matches_kind "softmax" g);
  Alcotest.(check bool) "accumulating kernel" true (Matcher.kernel_accumulates g)

let test_matcher_conv () =
  let modul = Axi4mlir.build_conv_module ~n:1 ~ic:4 ~ih:6 ~iw:6 ~oc:2 ~fh:3 ~fw:3 () in
  match
    List.concat_map (fun f -> Ir.find_ops Linalg.is_generic f) (Ir.module_body modul)
  with
  | [ g ] ->
    Alcotest.(check bool) "conv matches" true (Matcher.is_conv_2d_nchw_fchw g);
    Alcotest.(check bool) "conv is not matmul" false (Matcher.is_matmul g)
  | _ -> Alcotest.fail "expected one generic"

let test_matcher_rejects_wrong_kernel () =
  (* same maps/iterators but the kernel multiplies by the output: not a
     mul-add accumulation *)
  let b = Builder.create (Ir.context ()) in
  let a = Memref_d.alloc b (Ty.memref [ 4; 4 ] Ty.F32) in
  let bv = Memref_d.alloc b (Ty.memref [ 4; 4 ] Ty.F32) in
  let c = Memref_d.alloc b (Ty.memref [ 4; 4 ] Ty.F32) in
  let maps =
    [
      Affine_map.projection ~n_dims:3 [ 0; 2 ];
      Affine_map.projection ~n_dims:3 [ 2; 1 ];
      Affine_map.projection ~n_dims:3 [ 0; 1 ];
    ]
  in
  let g =
    Linalg.generic b ~indexing_maps:maps
      ~iterator_types:[ Linalg.parallel; Linalg.parallel; Linalg.reduction ]
      ~inputs:[ a; bv ] ~outputs:[ c ]
      (fun kb args ->
        match args with
        | [ ae; _be; ce ] ->
          let p = Arith.mulf kb ae ce in
          Linalg.yield kb [ p ]
        | _ -> assert false)
  in
  Alcotest.(check bool) "wrong kernel rejected" false (Matcher.is_matmul g);
  Alcotest.(check bool) "not accumulating" false (Matcher.kernel_accumulates g)

let matmul_maps =
  [
    Affine_map.projection ~n_dims:3 [ 0; 2 ];
    Affine_map.projection ~n_dims:3 [ 2; 1 ];
    Affine_map.projection ~n_dims:3 [ 0; 1 ];
  ]

let test_resolve_accel_dims () =
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  (match Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 8; 8; 8 ] () with
  | Ok tiles -> Alcotest.(check (list int)) "square tiles" [ 4; 4; 4 ] tiles
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "non-divisible rejected" true
    (Result.is_error (Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 10; 8; 8 ] ()));
  Alcotest.(check bool) "smaller than tile rejected" true
    (Result.is_error (Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 2; 8; 8 ] ()));
  Alcotest.(check bool) "override on fixed engine rejected" true
    (Result.is_error
       (Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
          ~tile_override:[ 8; 8; 8 ] ()))

let test_resolve_v4_override () =
  let config = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  (match
     Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 32; 256; 512 ]
       ~tile_override:[ 32; 16; 64 ] ()
   with
  | Ok tiles -> Alcotest.(check (list int)) "flex tiles" [ 32; 16; 64 ] tiles
  | Error e -> Alcotest.fail e);
  (* 128x64 A-tile = 8192 elements > 4096 capacity *)
  Alcotest.(check bool) "buffer overflow rejected" true
    (Result.is_error
       (Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 128; 256; 512 ]
          ~tile_override:[ 128; 16; 64 ] ()));
  Alcotest.(check bool) "granularity enforced" true
    (Result.is_error
       (Tiling.resolve_accel_dims config ~maps:matmul_maps ~ranges:[ 32; 256; 512 ]
          ~tile_override:[ 24; 16; 16 ] ()))

(* Regression pins for the tiling edge cases the differential fuzzer
   exercises: a tile larger than the problem extent, tile size 1, and
   non-dividing tile sizes must all resolve to the same structured
   errors (or tile lists) they do today. *)
let test_tiling_edge_cases () =
  let contains hay needle =
    let nl = String.length needle in
    let rec go i = i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let expect_error name result fragment =
    match result with
    | Ok tiles ->
      Alcotest.fail
        (Printf.sprintf "%s: expected an error, got tiles %s" name
           (String.concat "," (List.map string_of_int tiles)))
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions \"%s\" (got: %s)" name fragment msg)
        true (contains msg fragment)
  in
  let v4 = Presets.matmul ~version:Accel_matmul.V4 ~size:4 () in
  (* tile > dim: both via an engine tile larger than the extent and via
     an explicit override *)
  expect_error "fixed tile > extent"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 2; 8; 8 ] ())
    "problem extent is smaller than the accelerator tile";
  expect_error "override tile > extent"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
       ~tile_override:[ 16; 4; 4 ] ())
    "problem extent is smaller than the accelerator tile";
  (* tile exactly the extent: a single accelerator call, legal *)
  (match
     Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
       ~tile_override:[ 8; 8; 8 ] ()
   with
  | Ok tiles -> Alcotest.(check (list int)) "tile = extent" [ 8; 8; 8 ] tiles
  | Error e -> Alcotest.fail e);
  (* tile size 1 on a granule-1 flexible engine iterates elementwise *)
  let v4_1 = Presets.matmul ~version:Accel_matmul.V4 ~size:1 () in
  (match
     Tiling.resolve_accel_dims v4_1 ~maps:matmul_maps ~ranges:[ 3; 5; 7 ]
       ~tile_override:[ 1; 1; 1 ] ()
   with
  | Ok tiles -> Alcotest.(check (list int)) "tile size 1" [ 1; 1; 1 ] tiles
  | Error e -> Alcotest.fail e);
  (* tile size 1 on a granule-4 engine violates granularity *)
  expect_error "tile 1 below granularity"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
       ~tile_override:[ 1; 4; 4 ] ())
    "multiples of the accelerator granularity";
  (* non-dividing tiles: granule-aligned but not dividing the extent,
     and extent not divisible by the engine tile *)
  expect_error "tile does not divide extent"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 12; 8; 8 ]
       ~tile_override:[ 8; 4; 4 ] ())
    "divide the problem extents";
  expect_error "extent not a tile multiple"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 10; 8; 8 ] ())
    "divide the problem extents";
  (* a zero or negative tile is an error, not a division by zero *)
  expect_error "zero tiles"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
       ~tile_override:[ 0; 0; 0 ] ())
    "tile sizes must be >= 1 (tiles: 0, 0, 0)";
  expect_error "negative tile"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
       ~tile_override:[ 4; -4; 4 ] ())
    "tile sizes must be >= 1";
  (* arity mismatches stay structured errors too *)
  expect_error "override arity"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8; 8 ]
       ~tile_override:[ 8; 8 ] ())
    "tile_override arity mismatch";
  expect_error "ranges arity"
    (Tiling.resolve_accel_dims v4 ~maps:matmul_maps ~ranges:[ 8; 8 ] ())
    "expected 3 iteration dims"

let flow_of config name = Accel_config.flow_exn config name

let test_derive_permutation () =
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let derive name =
    Tiling.derive_permutation ~flow:(flow_of config name)
      ~opcode_map:config.Accel_config.opcode_map ~maps:matmul_maps ~accel_dim:[ 4; 4; 4 ]
  in
  Alcotest.(check (list int)) "Ns canonical" [ 0; 1; 2 ] (derive "Ns");
  (* Stationarity property: the stationary operand's dims come first
     (in some order), the streamed dim innermost. *)
  let outer2 perm = List.sort compare (Util.list_take 2 perm) in
  Alcotest.(check (list int)) "As pins m,k outer" [ 0; 2 ] (outer2 (derive "As"));
  Alcotest.(check (list int)) "As streams n" [ 1 ] (Util.list_drop 2 (derive "As"));
  Alcotest.(check (list int)) "Bs pins n,k outer" [ 1; 2 ] (outer2 (derive "Bs"));
  Alcotest.(check (list int)) "Bs streams m" [ 0 ] (Util.list_drop 2 (derive "Bs"));
  Alcotest.(check (list int)) "Cs pins m,n outer" [ 0; 1 ] (outer2 (derive "Cs"));
  Alcotest.(check (list int)) "Cs streams k" [ 2 ] (Util.list_drop 2 (derive "Cs"))

let test_derive_permutation_conv () =
  let config = Presets.conv () in
  let conv_maps =
    let open Affine_map in
    [
      make ~n_dims:7 [ Dim 0; Dim 4; Add (Dim 2, Dim 5); Add (Dim 3, Dim 6) ];
      projection ~n_dims:7 [ 1; 4; 5; 6 ];
      projection ~n_dims:7 [ 0; 1; 2; 3 ];
    ]
  in
  let perm =
    Tiling.derive_permutation
      ~flow:(flow_of config "Ws")
      ~opcode_map:config.Accel_config.opcode_map ~maps:conv_maps
      ~accel_dim:[ 1; 1; 1; 1; 0; 0; 0 ]
  in
  (* the weight-stationary dim f(=1) hoists outermost; absorbed
     reduction dims (4,5,6) trail *)
  Alcotest.(check (list int)) "conv perm" [ 1; 0; 2; 3; 4; 5; 6 ] perm

let test_cpu_tiles () =
  let tiles =
    Tiling.choose_cpu_tiles host ~ranges:[ 256; 256; 256 ] ~accel_dim:[ 16; 16; 16 ]
      ~safe_dims:[ 0; 1; 2 ] ~footprint_bytes:(3 * 256 * 256 * 4)
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "multiple of accel tile" true (t mod 16 = 0);
      Alcotest.(check bool) "divides extent" true (t = 0 || 256 mod t = 0);
      Alcotest.(check bool) "nontrivial" true (t = 0 || (t > 16 && t < 256)))
    tiles;
  (* small problems (footprint within L1) are not tiled *)
  Alcotest.(check (list int)) "small untiled" [ 0; 0; 0 ]
    (Tiling.choose_cpu_tiles host ~ranges:[ 32; 32; 32 ] ~accel_dim:[ 16; 16; 16 ]
       ~safe_dims:[ 0; 1; 2 ] ~footprint_bytes:(3 * 32 * 32 * 4));
  (* absorbed and unsafe dims are never tiled *)
  Alcotest.(check (list int)) "absorbed untiled" [ 0 ]
    (Tiling.choose_cpu_tiles host ~ranges:[ 256 ] ~accel_dim:[ 0 ] ~safe_dims:[ 0 ]
       ~footprint_bytes:(1 lsl 20));
  Alcotest.(check (list int)) "unsafe dim untiled" [ 0 ]
    (Tiling.choose_cpu_tiles host ~ranges:[ 256 ] ~accel_dim:[ 16 ] ~safe_dims:[]
       ~footprint_bytes:(1 lsl 20))

let annotate ?(flow = None) ?(size = 4) ?(m = 8) ?(n = 8) ?(k = 8) () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size () in
  let options = { Codegen_options.default with flow } in
  let _, g = matmul_generic ~m ~n ~k () in
  Match_annotate.annotate_op ~accel ~host ~options g

let test_match_annotate () =
  (match annotate () with
  | Ok annotated -> (
    match Trait.of_op annotated with
    | Some trait ->
      Alcotest.(check (list int)) "accel_dim" [ 4; 4; 4 ] trait.Trait.accel_dim;
      Alcotest.(check (list string)) "init opcodes" [ "reset" ] trait.Trait.init_opcodes
    | None -> Alcotest.fail "no trait attached")
  | Error e -> Alcotest.fail e);
  (match annotate ~flow:(Some "Cs") () with
  | Ok annotated -> (
    match Trait.of_op annotated with
    | Some trait ->
      Alcotest.(check bool) "flow override" true
        (Opcode.flow_to_string trait.Trait.opcode_flow = "opcode_flow<((sA sB cC) rC)>")
    | None -> Alcotest.fail "no trait")
  | Error e -> Alcotest.fail e);
  match annotate ~m:10 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-divisible problem annotated"

let test_match_annotate_rejection () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 () in
  let modul = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
  match Pass.run_pipeline [ Match_annotate.pass ~accel ~host () ] modul with
  | exception Match_annotate.Rejected reason ->
    Alcotest.(check string) "rejection reported"
      "AXI4MLIR: cannot offload: v3_16: problem extent is smaller than the \
       accelerator tile"
      reason
  | _ -> Alcotest.fail "8x8x8 annotated for a 16x16x16 engine"

(* Structure of generated code: for the As flow, the A-send must sit one
   loop above the B-send. *)
let loop_depth_of_op modul pred =
  let depth = ref (-1) in
  let rec walk_ops d ops =
    List.iter
      (fun (o : Ir.op) ->
        if pred o then depth := d;
        List.iter (fun r -> List.iter (fun (blk : Ir.block) -> walk_ops (d + 1) blk.Ir.body) r)
          o.Ir.regions)
      ops
  in
  walk_ops 0 [ modul ];
  !depth

let compile_to_accel flow =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow () in
  let bench = Axi4mlir.create accel in
  let options =
    { Axi4mlir.default_codegen with to_runtime_calls = false; cpu_tiling = false }
  in
  Axi4mlir.compile_matmul bench ~options ~m:8 ~n:8 ~k:8 ()

let is_send_of vid (o : Ir.op) =
  o.Ir.name = "accel.send"
  &&
  match o.Ir.operands with
  | tile :: _ -> (
    (* trace the subview's source argument by value id *)
    match vid tile with true -> true | false -> false)
  | [] -> false

let test_codegen_hoists_stationary () =
  let modul = compile_to_accel "As" in
  (* find the function argument values for A and B *)
  let f = List.hd (Ir.module_body modul) in
  let args = (Func.body_of f).Ir.bargs in
  let arg_a = List.nth args 0 and arg_b = List.nth args 1 in
  let subview_source (o : Ir.op) =
    match o.Ir.operands with src :: _ -> Some src.Ir.vid | [] -> None
  in
  let subviews = Ir.find_ops (fun o -> o.Ir.name = "memref.subview") modul in
  let tile_of arg =
    List.filter_map
      (fun (o : Ir.op) ->
        if subview_source o = Some arg.Ir.vid then Some (Ir.result o).Ir.vid else None)
      subviews
  in
  let a_tiles = tile_of arg_a and b_tiles = tile_of arg_b in
  let depth_of_send tiles =
    loop_depth_of_op modul (fun o ->
        is_send_of
          (fun (t : Ir.value) -> List.mem t.Ir.vid tiles)
          o)
  in
  let da = depth_of_send a_tiles and db = depth_of_send b_tiles in
  Alcotest.(check bool)
    (Printf.sprintf "A send (depth %d) hoisted above B send (depth %d)" da db)
    true (da = db - 1)

let test_codegen_ns_same_depth () =
  let modul = compile_to_accel "Ns" in
  let sends = Ir.find_ops (fun o -> o.Ir.name = "accel.send") modul in
  Alcotest.(check int) "two data sends" 2 (List.length sends);
  let recvs = Ir.find_ops (fun o -> o.Ir.name = "accel.recv") modul in
  Alcotest.(check int) "one recv" 1 (List.length recvs);
  let depth_send =
    loop_depth_of_op modul (fun o -> o.Ir.name = "accel.send")
  and depth_recv = loop_depth_of_op modul (fun o -> o.Ir.name = "accel.recv") in
  Alcotest.(check int) "send and recv share the innermost loop" depth_send depth_recv

let test_codegen_cs_recv_outside_k () =
  let modul = compile_to_accel "Cs" in
  let depth_send = loop_depth_of_op modul (fun o -> o.Ir.name = "accel.send") in
  let depth_recv = loop_depth_of_op modul (fun o -> o.Ir.name = "accel.recv") in
  Alcotest.(check bool)
    (Printf.sprintf "recv (depth %d) outside the k loop of sends (depth %d)" depth_recv
       depth_send)
    true
    (depth_recv = depth_send - 1)

let test_codegen_dma_init_once () =
  let modul = compile_to_accel "Ns" in
  Alcotest.(check int) "one dma_init" 1
    (Ir.count_ops (fun o -> o.Ir.name = "accel.dma_init") modul);
  (* reset literal (0xFF) emitted before the loops at depth of function body *)
  let reset_depth =
    loop_depth_of_op modul (fun o ->
        o.Ir.name = "accel.sendLiteral"
        &&
        match o.Ir.operands with
        | _ :: _ -> true
        | [] -> false)
  in
  Alcotest.(check bool) "literals exist" true (reset_depth >= 0)

let test_runtime_lowering_callees () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let no_spec =
    { Axi4mlir.default_codegen with copy_specialization = false; cpu_tiling = false }
  in
  let modul = Axi4mlir.compile_matmul bench ~options:no_spec ~m:8 ~n:8 ~k:8 () in
  Alcotest.(check int) "no accel ops remain" 0 (Ir.count_ops Accel.is_accel modul);
  let callees m =
    List.sort_uniq compare
      (List.filter_map
         (fun (o : Ir.op) ->
           if o.Ir.name = "func.call" then
             match Ir.attr o "callee" with Some (Attribute.Str s) -> Some s | _ -> None
           else None)
         (Ir.find_ops (fun _ -> true) m))
  in
  let plain = callees modul in
  Alcotest.(check bool) "generic copies" true
    (List.mem Runtime_abi.(name (Copy_to { spec = false })) plain);
  Alcotest.(check bool) "no specialised copies" false
    (List.mem Runtime_abi.(name (Copy_to { spec = true })) plain);
  let with_spec =
    Axi4mlir.compile_matmul bench
      ~options:{ Axi4mlir.default_codegen with cpu_tiling = false }
      ~m:8 ~n:8 ~k:8 ()
  in
  let spec = callees with_spec in
  Alcotest.(check bool) "specialised copies present" true
    (List.mem Runtime_abi.(name (Copy_to { spec = true })) spec);
  Alcotest.(check bool) "unit-stride tiles all specialised" false
    (List.mem Runtime_abi.(name (Copy_to { spec = false })) spec)

let test_cpu_tiling_adds_loops () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let count_loops options =
    let modul = Axi4mlir.compile_matmul bench ~options ~m:256 ~n:256 ~k:256 () in
    Ir.count_ops (fun o -> o.Ir.name = "scf.for") modul
  in
  let flat = count_loops { Axi4mlir.default_codegen with cpu_tiling = false } in
  let tiled = count_loops Axi4mlir.default_codegen in
  Alcotest.(check int) "flat nest" 3 flat;
  Alcotest.(check int) "two-level nest" 6 tiled

let test_annotate_idempotent () =
  (* running the matcher pass twice must not re-annotate or duplicate *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let modul = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
  let p = Match_annotate.pass ~accel ~host () in
  let once = Pass.run_pipeline [ p ] modul in
  let twice = Pass.run_pipeline [ p ] once in
  Alcotest.(check bool) "idempotent" true (Ir_compare.equal_op once twice)

let test_pass_failure_reporting () =
  (* a pass that breaks SSA must be caught by inter-pass verification *)
  let broken =
    Pass.make "break-ssa" (fun m ->
        let ctx = Ir.context_of m in
        Ir.map_nested
          (fun o ->
            if o.Ir.name = "arith.mulf" then
              { o with Ir.operands = [ Ir.fresh_value ctx Ty.f32; Ir.fresh_value ctx Ty.f32 ] }
            else o)
          m)
  in
  let modul = Axi4mlir.build_matmul_module ~m:4 ~n:4 ~k:4 () in
  match Pass.run_pipeline [ broken ] modul with
  | exception Pass.Pass_failure { pass; failing_op; _ } ->
    Alcotest.(check string) "names the pass" "break-ssa" pass;
    Alcotest.(check string) "names the failing op" "arith.mulf" failing_op
  | _ -> Alcotest.fail "broken pass not caught"

let tests =
  [
    Alcotest.test_case "annotate is idempotent" `Quick test_annotate_idempotent;
    Alcotest.test_case "pass failure reporting" `Quick test_pass_failure_reporting;
    Alcotest.test_case "matcher: matmul" `Quick test_matcher_positive;
    Alcotest.test_case "matcher: conv" `Quick test_matcher_conv;
    Alcotest.test_case "matcher rejects wrong kernels" `Quick test_matcher_rejects_wrong_kernel;
    Alcotest.test_case "resolve accel dims" `Quick test_resolve_accel_dims;
    Alcotest.test_case "resolve v4 overrides" `Quick test_resolve_v4_override;
    Alcotest.test_case "tiling edge cases" `Quick test_tiling_edge_cases;
    Alcotest.test_case "derive permutation (matmul flows)" `Quick test_derive_permutation;
    Alcotest.test_case "derive permutation (conv)" `Quick test_derive_permutation_conv;
    Alcotest.test_case "cpu tile choice" `Quick test_cpu_tiles;
    Alcotest.test_case "match-and-annotate" `Quick test_match_annotate;
    Alcotest.test_case "annotate rejection" `Quick test_match_annotate_rejection;
    Alcotest.test_case "codegen hoists stationary sends" `Quick test_codegen_hoists_stationary;
    Alcotest.test_case "codegen Ns places everything innermost" `Quick test_codegen_ns_same_depth;
    Alcotest.test_case "codegen Cs receives outside k" `Quick test_codegen_cs_recv_outside_k;
    Alcotest.test_case "dma_init emitted once" `Quick test_codegen_dma_init_once;
    Alcotest.test_case "runtime lowering callees" `Quick test_runtime_lowering_callees;
    Alcotest.test_case "cpu tiling adds a loop level" `Quick test_cpu_tiling_adds_loops;
  ]
