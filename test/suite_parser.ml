(* Printer/parser round-trip tests over the generic operation form. *)

let roundtrip_stable name m =
  let printed = Printer.to_generic m in
  let reparsed =
    try Parser_ir.parse_op printed
    with Parser_ir.Parse_error msg ->
      Alcotest.fail (Printf.sprintf "%s: parse error: %s\nIR was:\n%s" name msg printed)
  in
  Alcotest.(check string) (name ^ " roundtrip") printed (Printer.to_generic reparsed);
  (* structural equality modulo value identities, the stronger law *)
  match Ir_compare.diff_op m reparsed with
  | None -> ()
  | Some diff -> Alcotest.fail (Printf.sprintf "%s: structural difference: %s" name diff)

let test_parse_type () =
  List.iter
    (fun text -> Alcotest.(check string) text text (Ty.to_string (Parser_ir.parse_type text)))
    [
      "f32";
      "index";
      "i32";
      "memref<8x8xf32>";
      "memref<4x4xf32, strided<[80, 1], offset: 42>>";
      "memref<4x4xf32, strided<[8, 1], offset: ?>>";
      "memref<1x256x3x3xf32>";
      "(index, f32) -> (i32)";
    ]

let test_parse_attribute () =
  List.iter
    (fun text ->
      Alcotest.(check string) text text (Attribute.to_string (Parser_ir.parse_attribute text)))
    [
      "unit";
      "true";
      "42";
      "-3";
      "\"hello\"";
      "dense<[4, 4, 4]>";
      "[#parallel, #reduction]";
      "[1, 2, \"x\"]";
      "{a = 1, b = \"s\"}";
      "affine_map<(d0, d1, d2) -> (d0, d2)>";
      "affine_map<(d0, d1, d2, d3, d4, d5, d6) -> (d0, d4, d2 + d5, d3 + d6)>";
      "opcode_map<sA = [send_literal(0x22), send(0)]>";
      "opcode_flow<(sA (sB cC rC))>";
      "type(memref<4x4xf32>)";
    ]

let test_parse_float_attr () =
  match Parser_ir.parse_attribute "1.500000e+00" with
  | Attribute.Float f -> Alcotest.(check (float 1e-9)) "float value" 1.5 f
  | _ -> Alcotest.fail "expected float"

let test_roundtrip_matmul_module () =
  roundtrip_stable "matmul module" (Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 ())

let test_roundtrip_conv_module () =
  roundtrip_stable "conv module"
    (Axi4mlir.build_conv_module ~n:1 ~ic:4 ~ih:6 ~iw:6 ~oc:2 ~fh:3 ~fw:3 ())

let compile_matmul ?(to_runtime = true) () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"As" () in
  let bench = Axi4mlir.create accel in
  let options = { Axi4mlir.default_codegen with to_runtime_calls = to_runtime } in
  Axi4mlir.compile_matmul bench ~options ~m:8 ~n:8 ~k:8 ()

let test_roundtrip_accel_level () =
  roundtrip_stable "accel-level module" (compile_matmul ~to_runtime:false ())

let test_roundtrip_runtime_level () =
  roundtrip_stable "runtime-level module" (compile_matmul ~to_runtime:true ())

let test_roundtrip_cpu_level () =
  roundtrip_stable "cpu-lowered module"
    (Axi4mlir.compile_cpu (Axi4mlir.build_matmul_module ~m:4 ~n:4 ~k:4 ()))

let test_annotated_trait_roundtrip () =
  (* the trait attributes (opcode_map/flow, affine maps, dicts) survive
     printing and parsing *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let host = Host_config.pynq_z2 in
  let m = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
  let annotated =
    Pass.run_pipeline
      [ Match_annotate.pass ~accel ~host () ]
      m
  in
  roundtrip_stable "annotated module" annotated;
  let reparsed = Parser_ir.parse_op (Printer.to_generic annotated) in
  let generic =
    List.concat_map
      (fun f -> Ir.find_ops Linalg.is_generic f)
      (Ir.module_body reparsed)
  in
  match generic with
  | [ g ] -> (
    match Trait.of_op g with
    | Some trait ->
      Alcotest.(check (list int)) "accel_dim" [ 4; 4; 4 ] trait.Trait.accel_dim;
      Alcotest.(check (list int)) "permutation (Cs)" [ 0; 1; 2 ] trait.Trait.permutation
    | None -> Alcotest.fail "trait lost in roundtrip")
  | _ -> Alcotest.fail "generic op lost in roundtrip"

let test_parse_errors () =
  let expect_error src =
    match Parser_ir.parse_op src with
    | exception Parser_ir.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ src)
  in
  expect_error "\"op\"(%0) : (f32) -> ()";
  (* undefined value *)
  expect_error "%0 = \"op\"() : () -> (f32) %0 = \"op\"() : () -> (f32)";
  (* redefinition *)
  expect_error "\"op\"() : (f32) -> ()";
  (* operand/type count mismatch *)
  expect_error "\"op\" : () -> ()" (* missing parens *)

let test_parse_comments () =
  let m = Parser_ir.parse_op "// header comment\n\"builtin.module\"() ({\n// inner\n}) : () -> ()" in
  Alcotest.(check bool) "module parsed" true (Ir.is_module m)

(* Property: parsing is insensitive to extra whitespace. *)
let prop_whitespace_insensitive =
  QCheck.Test.make ~name:"parser ignores extra blank lines" ~count:20
    QCheck.(int_range 1 5)
    (fun blanks ->
      let m = Axi4mlir.build_matmul_module ~m:4 ~n:4 ~k:4 () in
      let printed = Printer.to_generic m in
      let padded =
        String.concat (String.make blanks '\n') (String.split_on_char '\n' printed)
      in
      Printer.to_generic (Parser_ir.parse_op padded) = printed)

(* ------------------------------------------------------------------ *)
(* Golden files: committed expected IR for modules compiled from every
   configuration under examples/configs. Each test regenerates the
   module through the library pipeline and checks the printed output
   byte-for-byte against the committed file, then re-parses the file
   and checks print(parse(golden)) is byte-identical — so both the
   code generator's output and the printer/parser round trip are
   pinned. Regenerate with bin/axi4mlir_opt (see test/golden/). *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name ~golden m =
  let path = Filename.concat "golden" golden in
  let expected = read_file path in
  Alcotest.(check string) (name ^ ": codegen output matches " ^ path) expected
    (Printer.to_generic m);
  let reparsed =
    try Parser_ir.parse_op expected
    with Parser_ir.Parse_error msg ->
      Alcotest.fail (Printf.sprintf "%s: golden file does not parse: %s" path msg)
  in
  Alcotest.(check string) (name ^ ": byte-for-byte round trip") expected
    (Printer.to_generic reparsed);
  match Ir_compare.diff_op m reparsed with
  | None -> ()
  | Some diff -> Alcotest.fail (Printf.sprintf "%s: structural difference: %s" path diff)

let config_path file = Filename.concat (Filename.concat ".." "examples/configs") file

let compile_from_config ?(options = Axi4mlir.default_codegen) ~config m =
  let host, accel = Result.get_ok (Config_parser.parse_file_result (config_path config)) in
  let bench = Axi4mlir.create ~host accel in
  Axi4mlir.compile bench ~options m

let test_golden_v3_matmul () =
  check_golden "v3/Cs matmul" ~golden:"matmul_v3_16_cs.mlir"
    (compile_from_config ~config:"v3_16_cs.json"
       (Axi4mlir.build_matmul_module ~m:64 ~n:64 ~k:64 ()))

let test_golden_v4_tiled_matmul () =
  check_golden "v4 tiled matmul" ~golden:"matmul_v4_16_tiles.mlir"
    (compile_from_config ~config:"v4_16.json"
       ~options:{ Axi4mlir.default_codegen with tiles = Some [ 32; 16; 16 ] }
       (Axi4mlir.build_matmul_module ~m:64 ~n:48 ~k:32 ()))

let test_golden_conv () =
  check_golden "conv2d/Ws" ~golden:"conv2d_ws.mlir"
    (compile_from_config ~config:"conv2d.json"
       (Axi4mlir.build_conv_module ~n:1 ~ic:2 ~ih:8 ~iw:8 ~oc:2 ~fh:3 ~fw:3 ()))

let test_golden_accel_level () =
  check_golden "v3 accel-level" ~golden:"matmul_v3_16_accel_level.mlir"
    (compile_from_config ~config:"v3_16_cs.json"
       ~options:{ Axi4mlir.default_codegen with to_runtime_calls = false }
       (Axi4mlir.build_matmul_module ~m:32 ~n:32 ~k:32 ()))

let test_golden_cpu_loops () =
  check_golden "cpu loop nest" ~golden:"matmul_cpu_loops.mlir"
    (Axi4mlir.compile_cpu (Axi4mlir.build_matmul_module ~m:16 ~n:16 ~k:16 ()))

let tests =
  [
    Alcotest.test_case "parse types" `Quick test_parse_type;
    Alcotest.test_case "parse attributes" `Quick test_parse_attribute;
    Alcotest.test_case "parse float attribute" `Quick test_parse_float_attr;
    Alcotest.test_case "roundtrip: matmul module" `Quick test_roundtrip_matmul_module;
    Alcotest.test_case "roundtrip: conv module" `Quick test_roundtrip_conv_module;
    Alcotest.test_case "roundtrip: accel level" `Quick test_roundtrip_accel_level;
    Alcotest.test_case "roundtrip: runtime level" `Quick test_roundtrip_runtime_level;
    Alcotest.test_case "roundtrip: cpu lowering" `Quick test_roundtrip_cpu_level;
    Alcotest.test_case "roundtrip: annotated trait" `Quick test_annotated_trait_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments" `Quick test_parse_comments;
    Alcotest.test_case "golden: v3/Cs matmul" `Quick test_golden_v3_matmul;
    Alcotest.test_case "golden: v4 tiled matmul" `Quick test_golden_v4_tiled_matmul;
    Alcotest.test_case "golden: conv2d" `Quick test_golden_conv;
    Alcotest.test_case "golden: accel level" `Quick test_golden_accel_level;
    Alcotest.test_case "golden: cpu loops" `Quick test_golden_cpu_loops;
    QCheck_alcotest.to_alcotest prop_whitespace_insensitive;
  ]
