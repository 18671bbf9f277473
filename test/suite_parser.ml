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
  expect_error "\"op\" : () -> ()";
  (* missing parens *)
  (* a stride list shorter than the shape, which Ty.memref rejects *)
  match Parser_ir.parse_type "memref<4x4xf32, strided<[1], offset: 0>>" with
  | exception Parser_ir.Parse_error _ -> ()
  | _ -> Alcotest.fail "a stride list shorter than the shape was accepted"

(* Every error message, byte for byte with its position: the checks run
   in a fixed order (arities, then operand lookup, then operand types,
   then result binding) at the cursor after the op's types. *)
let in_module body = "\"builtin.module\"() ({\n" ^ body ^ "}) : () -> ()"

(* A type text parsed at the top, then again inside [depth] regions. *)
let type_at_depth depth =
  let op = "\"a.op\"() {t = type((memref<4xf32, strided<[1], offset: 0>>) -> ())} : () -> ()\n" in
  in_module
    (op
    ^ String.concat "" (List.init depth (fun _ -> "\"t.op\"() ({\n"))
    ^ op
    ^ String.concat "" (List.init depth (fun _ -> "}) : () -> ()\n")))

let error_cases =
  [
    ( "undefined value",
      `Op (in_module "  \"a.use\"(%0) : (f32) -> ()\n"),
      "line 2, column 28: use of undefined value %0" );
    ( "undefined named value",
      `Op
        (in_module
           "  %x = \"a.def\"() : () -> (f32)\n  \"a.use\"(%x, %y) : (f32, f32) -> ()\n"),
      "line 3, column 37: use of undefined value %y" );
    ( "redefinition",
      `Op (in_module "  %0 = \"a.def\"() : () -> (f32)\n  %0 = \"a.def\"() : () -> (f32)\n"),
      "line 3, column 31: redefinition of value %0" );
    ( "redefined block argument",
      `Op (in_module "  \"a.r\"() ({\n  ^bb(%a: index, %a: index):\n  }) : () -> ()\n"),
      "line 3, column 27: redefinition of value %a" );
    ( "operand arity",
      `Op (in_module "  \"a.op\"() : (f32) -> ()\n"),
      "line 2, column 25: op a.op: 0 operands but 1 operand types" );
    ( "result arity",
      `Op (in_module "  %0, %1 = \"a.op\"() : () -> (f32)\n"),
      "line 2, column 34: op a.op: 2 results but 1 result types" );
    ( "operand type mismatch",
      `Op (in_module "  %0 = \"a.def\"() : () -> (f32)\n  \"a.use\"(%0) : (i32) -> ()\n"),
      "line 3, column 28: op a.use: operand type mismatch: f32 vs i32" );
    ( "memref operand type mismatch",
      `Op
        (in_module
           "  %0 = \"a.def\"() : () -> (memref<4x4xf32>)\n\
           \  \"a.use\"(%0) : (memref<4x8xf32>) -> ()\n"),
      "line 3, column 40: op a.use: operand type mismatch: memref<4x4xf32> vs memref<4x8xf32>" );
    ( "unknown type",
      `Op (in_module "  %0 = \"a.def\"() : () -> (f33)\n"),
      "line 2, column 30: unknown type f33" );
    ( "missing type",
      `Op (in_module "  %0 = \"a.def\"() : () -> (,)\n"),
      "line 2, column 27: expected a type" );
    ( "unknown dialect type",
      `Op (in_module "  %0 = \"a.def\"() : () -> (!accel.tok)\n"),
      "line 2, column 37: unknown dialect type !accel.tok" );
    ("unknown element type", `Ty "memref<4x4xf33>", "line 1, column 15: unknown element type f33");
    ("memref dimension without x", `Ty "memref<4x4>", "line 1, column 11: expected 'x' after memref dimension");
    ( "too few strides",
      `Ty "memref<4x4xf32, strided<[1], offset: 0>>",
      "line 1, column 28: 1 strides for a rank-2 memref" );
    ( "too many strides",
      `Ty "memref<4xf32, strided<[4, 1, 1], offset: ?>>",
      "line 1, column 32: 3 strides for a rank-1 memref" );
    ( "memref dimension that does not fit",
      `Ty "memref<99999999999999999999x4xf32>",
      "line 1, column 8: integer literal 99999999999999999999 does not fit an int" );
    ( "unknown attribute",
      `Op (in_module "  \"a.op\"() {k = bogus} : () -> ()\n"),
      "line 2, column 22: unknown attribute 'bogus'" );
    ("unterminated string", `Op "\"a.op", "line 1, column 6: unterminated string");
    ("unterminated escape", `Op "\"a.op\\", "line 1, column 7: unterminated escape");
    ( "invalid escape",
      `Op (in_module "  \"a.op\"() {k = \"x\\qy\"} : () -> ()\n"),
      "line 2, column 20: invalid escape \\q" );
    ( "integer attribute that does not fit",
      `Op (in_module "  \"a.op\"() {k = 99999999999999999999} : () -> ()\n"),
      "line 2, column 37: invalid integer literal 99999999999999999999" );
    ( "hex attribute that does not fit",
      `Attr "0x7FFFFFFFFFFFFFFFF",
      "line 1, column 20: invalid integer literal 0x7FFFFFFFFFFFFFFFF" );
    ( "hex prefix without digits",
      `Op (in_module "  %0 = \"arith.constant\"() {value = 0x} : () -> (index)\n"),
      "line 2, column 38: invalid integer literal 0x" );
    ( "dense integer that does not fit",
      `Attr "dense<[1, 99999999999999999999]>",
      "line 1, column 11: integer literal 99999999999999999999 does not fit an int" );
    ("float without exponent digits", `Attr "1.5e+", "line 1, column 6: invalid float literal 1.5e+");
    ( "value name without a name",
      `Op (in_module "  % = \"a.op\"() : () -> ()\n"),
      "line 2, column 4: expected value name after %" );
    ( "empty region list",
      `Op (in_module "  \"a.op\"() () : () -> ()\n"),
      "line 2, column 14: expected a region" );
    ("missing attribute", `Attr "", "line 1, column 1: expected an attribute");
    ("unknown affine dimension", `Attr "affine_map<(d0) -> (d1)>", "line 1, column 23: unknown affine dimension d1");
    ("truncated affine map", `Attr "affine_map<(d0) -> (", "line 1, column 21: expected affine expression");
    ("trailing content", `Op (in_module "" ^ " x"), "line 2, column 15: trailing content starting with 'x'");
    ("op without operand list", `Op "\"op\" : () -> ()", "line 1, column 6: expected '(', found ':'");
    ("function type without arrow", `Op (in_module "  \"a.op\"() : () (f32)\n"), "line 2, column 17: expected '->'");
    ( "attribute depth cap",
      `Attr (String.make 257 '[' ^ "1" ^ String.make 257 ']'),
      "line 1, column 258: nesting deeper than the limit of 256 levels" );
    ( "function type depth cap",
      `Ty (String.make 257 '(' ^ String.concat "" (List.init 257 (fun _ -> ") -> ()"))),
      "line 1, column 258: nesting deeper than the limit of 256 levels" );
    ( "a type seen before, nested past the depth cap",
      `Op (type_at_depth 253),
      "line 256, column 44: nesting deeper than the limit of 256 levels" );
    ( "region depth cap",
      `Op (String.concat "" (List.init 257 (fun _ -> "\"t.op\"() ({\n"))),
      "line 257, column 8: nesting deeper than the limit of 256 levels" );
  ]

let test_error_messages () =
  ignore (Parser_ir.parse_op (type_at_depth 252));
  List.iter
    (fun (name, input, expected) ->
      match
        match input with
        | `Op text -> ignore (Parser_ir.parse_op text)
        | `Ty text -> ignore (Parser_ir.parse_type text)
        | `Attr text -> ignore (Parser_ir.parse_attribute text)
      with
      | () -> Alcotest.failf "%s: accepted" name
      | exception Parser_ir.Parse_error msg -> Alcotest.(check string) name expected msg)
    error_cases

(* Trait payloads are parsed in place: a bad opcode flow reports the
   IR text's line and column. *)
let test_trait_payload_position () =
  let src =
    "\"builtin.module\"() ({\n  \"t.op\"() {f = opcode_flow<(sA sB>} : () -> ()\n}) : () -> ()"
  in
  match Parser_ir.parse_op src with
  | exception Parser_ir.Parse_error msg ->
    Alcotest.(check string) "position in the IR file"
      "line 2, column 35: unexpected '>' in opcode_flow" msg
  | _ -> Alcotest.fail "unbalanced opcode flow accepted"

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

(* Every committed golden prints back byte for byte after a parse. *)
let golden_files () =
  Sys.readdir "golden" |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".mlir")

let test_golden_reprint () =
  Alcotest.(check bool) "some goldens" true (golden_files () <> []);
  List.iter
    (fun f ->
      let text = read_file (Filename.concat "golden" f) in
      Alcotest.(check string) f text (Printer.to_generic (Parser_ir.parse_op text)))
    (golden_files ())

let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. 100.0

(* A parse allocates the module it returns and little else. *)
let test_parse_allocation () =
  let text = read_file "golden/matmul_v3_16_cs.mlir" in
  let words = words_per_call (fun () -> Parser_ir.parse_op text) in
  Alcotest.(check bool)
    (Printf.sprintf "parse_op: %.0f words per call (at most 2500)" words)
    true (words <= 2500.0)

(* On a large module the tables and stacks outgrow the minor heap's
   largest block and are allocated directly in the major heap, which
   [Gc.minor_words] does not see: count those words too, and bound the
   whole parse by the size of the module it returns. *)
let test_large_parse_allocation () =
  let n = 2000 in
  let b = Buffer.create (80 * n) in
  Buffer.add_string b "\"builtin.module\"() ({\n  \"func.func\"() ({\n";
  Buffer.add_string b "    %0 = \"arith.constant\"() {value = 1} : () -> (i32)\n";
  for i = 1 to n - 1 do
    Printf.bprintf b
      "    %%m%d = \"memref.alloc\"(%%0) {callee = \"f%d\"} : (i32) -> (memref<%dxf32>)\n" i i i;
    Printf.bprintf b "    %%%d = \"arith.addi\"(%%%d, %%0) : (i32, i32) -> (i32)\n" i (i - 1)
  done;
  Buffer.add_string b "  }) {sym_name = \"big\"} : () -> ()\n}) : () -> ()\n";
  let text = Buffer.contents b in
  ignore (Sys.opaque_identity (Parser_ir.parse_op text));
  let minor0, promoted0, major0 = Gc.counters () in
  let m = Sys.opaque_identity (Parser_ir.parse_op text) in
  let minor1, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  let words = minor1 -. minor0 +. direct in
  let module_words = float_of_int (Obj.reachable_words (Obj.repr m)) in
  Alcotest.(check bool)
    (Printf.sprintf
       "parse_op: %.0f words, %.0f direct in the major heap, for a module of %.0f (at most twice)"
       words direct module_words)
    true
    (words <= 2.0 *. module_words)

(* One type per distinct type text: every value whose type prints the
   same holds the same physical type, and scalars are Ty's own. *)
let test_shared_types () =
  let m = Parser_ir.parse_op (read_file "golden/matmul_v3_16_cs.mlir") in
  let values =
    Ir.fold
      (fun acc (o : Ir.op) ->
        let args =
          List.concat_map (List.concat_map (fun (b : Ir.block) -> b.bargs)) o.regions
        in
        args @ o.results @ acc)
      [] m
  in
  let by_text = Hashtbl.create 8 in
  List.iter
    (fun (v : Ir.value) ->
      let text = Ty.to_string v.vty in
      match Hashtbl.find_opt by_text text with
      | None -> Hashtbl.add by_text text (v.vty, 1)
      | Some (first, n) ->
        Alcotest.(check bool) (text ^ " shared") true (first == v.vty);
        Hashtbl.replace by_text text (first, n + 1))
    values;
  let count text = match Hashtbl.find_opt by_text text with Some (_, n) -> n | None -> 0 in
  Alcotest.(check bool) "a strided memref type occurs twice" true
    (count "memref<16x16xf32, strided<[64, 1], offset: ?>>" >= 2);
  Alcotest.(check bool) "index is Ty.index" true (fst (Hashtbl.find by_text "index") == Ty.index);
  Alcotest.(check bool) "i32 is Ty.i32" true (fst (Hashtbl.find by_text "i32") == Ty.i32);
  (* the same text in a function type and in a value's type *)
  List.iter
    (fun f ->
      match Ir.attr f "function_type" with
      | Some (Attribute.Type_attr (Ty.Func (arg :: _, _))) ->
        Alcotest.(check bool) "function argument type shared" true
          (arg == fst (Hashtbl.find by_text (Ty.to_string arg)))
      | _ -> Alcotest.fail "func.func without a function type")
    (Ir.module_body m)

(* ------------------------------------------------------------------ *)
(* Hostile input: nesting, depth cap and mutations                     *)
(* ------------------------------------------------------------------ *)

let repeat n s = String.concat "" (List.init n (fun _ -> s))
let nested depth = repeat depth "[" ^ "1" ^ repeat depth "]"

let rec nested_attr depth =
  if depth = 0 then Attribute.Int 1 else Attribute.Array [ nested_attr (depth - 1) ]

let test_deep_attribute_roundtrip () =
  let text = nested Scanner.max_depth in
  Alcotest.(check string) "parse then print" text
    (Attribute.to_string (Parser_ir.parse_attribute text));
  (* printing is linear: 20k levels print in milliseconds *)
  Alcotest.(check string) "print 20k levels" (nested 20_000)
    (Attribute.to_string (nested_attr 20_000))

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let depth_message = Printf.sprintf "limit of %d levels" Scanner.max_depth

let expect_depth_error name parse text =
  match parse text with
  | exception Scanner.Error msg ->
    if not (contains msg depth_message) then Alcotest.failf "%s: %s" name msg
  | _ -> Alcotest.failf "%s: %d levels accepted" name (Scanner.max_depth + 1)

let test_depth_cap () =
  let over = Scanner.max_depth + 1 in
  let region_nest depth =
    let buf = Buffer.create (depth * 40) in
    for _ = 1 to depth do
      Buffer.add_string buf "\"t.op\"() ({\n"
    done;
    for _ = 1 to depth do
      Buffer.add_string buf "}) : () -> ()\n"
    done;
    Buffer.contents buf
  in
  ignore (Parser_ir.parse_op (region_nest Scanner.max_depth));
  expect_depth_error "regions" Parser_ir.parse_op (region_nest over);
  expect_depth_error "attribute" Parser_ir.parse_attribute (nested over);
  expect_depth_error "function type" Parser_ir.parse_type
    (repeat over "(" ^ repeat over ") -> ()");
  expect_depth_error "affine expression" Parser_ir.parse_attribute
    ("affine_map<(d0) -> (" ^ repeat over "(" ^ "d0" ^ repeat over ")" ^ ")>");
  expect_depth_error "json array" Json.of_string (nested over);
  expect_depth_error "json object" Json.of_string (repeat over "{\"a\": " ^ "1" ^ repeat over "}");
  expect_depth_error "opcode flow" Opcode.parse_flow (repeat over "(" ^ "sA" ^ repeat over ")")

(* Mutations of every committed textual input: each parser returns a
   value or raises its own error — never Invalid_argument, Not_found,
   Failure or Stack_overflow. *)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let files dir ext =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.map (fun f -> read_text (Filename.concat dir f))

let quietly parse text = match parse text with _ -> () | exception Scanner.Error _ -> ()

let mutation_corpus =
  lazy
    (let ir = quietly Parser_ir.parse_op and json = quietly Json.of_string in
     let presets = List.map (fun name -> Result.get_ok (Presets.find_by_name name)) Presets.names in
     let texts f = List.sort_uniq compare (List.concat_map f presets) in
     let maps = texts (fun a -> [ Opcode.map_to_string a.Accel_config.opcode_map ]) in
     let flows =
       texts (fun a -> List.map (fun (_, f) -> Opcode.flow_to_string f) a.Accel_config.opcode_flows)
     in
     let with_parser parse = List.map (fun text -> (parse, text)) in
     Array.of_list
       (with_parser ir (files "golden" ".mlir")
       @ with_parser json (files "../examples/configs" ".json")
       @ with_parser (quietly Opcode.parse_map) maps
       @ with_parser (quietly Opcode.parse_flow) flows))

(* The index of the first [c] at or after [i], if any. *)
let rec find_from text i c =
  if i >= String.length text then None
  else if text.[i] = c then Some i
  else find_from text (i + 1) c

(* The end of the first member of the container opening at [i]: the
   next ',' or closer outside nested brackets and strings. *)
let member_end text i =
  let rec go j depth in_string =
    if j >= String.length text then j
    else
      match text.[j] with
      | '\\' when in_string -> go (j + 2) depth in_string
      | '"' -> go (j + 1) depth (not in_string)
      | _ when in_string -> go (j + 1) depth in_string
      | '(' | '[' | '{' -> go (j + 1) (depth + 1) in_string
      | (')' | ']' | '}') when depth > 0 -> go (j + 1) (depth - 1) in_string
      | ',' | ')' | ']' | '}' -> j
      | _ -> go (j + 1) depth in_string
  in
  go (i + 1) 0 false

let mutate text ~kind ~pos ~byte ~size =
  let n = String.length text in
  let pos = if n = 0 then 0 else pos mod n in
  let insert_at i s = String.sub text 0 i ^ s ^ String.sub text i (n - i) in
  match kind with
  | 0 -> String.sub text 0 pos
  | 1 -> String.mapi (fun i c -> if i = pos then Char.chr byte else c) text
  | 2 ->
    (* deep nesting, raw at [pos] or as the first element of the next array *)
    let o, c = [| ('[', ']'); ('(', ')'); ('{', '}') |].(byte mod 3) in
    let nest = String.make size o ^ String.make size c in
    if byte land 4 = 0 then insert_at pos nest
    else (
      match find_from text pos '[' with
      | Some i -> insert_at (i + 1) (String.make size '[' ^ String.make size ']' ^ ", ")
      | None -> insert_at pos nest)
  | 3 ->
    (* a huge integer literal *)
    let rec first_digit i = if i = n || Scanner.is_digit text.[i] then i else first_digit (i + 1) in
    insert_at (first_digit pos) (String.make 25 '9')
  | _ -> (
    (* duplicate the first key of the next dictionary or object *)
    match find_from text pos '{' with
    | None -> text
    | Some i ->
      let e = member_end text i in
      insert_at (i + 1) (String.sub text (i + 1) (e - i - 1) ^ ", "))

let prop_mutated_inputs_never_raise =
  QCheck.Test.make ~name:"mutated IR, configs and opcodes raise only parse errors" ~count:3000
    QCheck.(
      make
        Gen.(
          tup5 (int_bound 1000) (int_bound 4) (int_bound 1_000_000) (int_bound 255)
            (int_range 1 (4 * Scanner.max_depth))))
    (fun (which, kind, pos, byte, size) ->
      let corpus = Lazy.force mutation_corpus in
      let parse, text = corpus.(which mod Array.length corpus) in
      let text = mutate text ~kind ~pos ~byte ~size in
      match parse text with
      | () -> true
      | exception e -> QCheck.Test.fail_reportf "%s on %S" (Printexc.to_string e) text)

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
    Alcotest.test_case "parse error messages, byte for byte" `Quick test_error_messages;
    Alcotest.test_case "comments" `Quick test_parse_comments;
    Alcotest.test_case "trait payload errors carry the IR position" `Quick
      test_trait_payload_position;
    Alcotest.test_case "golden: v3/Cs matmul" `Quick test_golden_v3_matmul;
    Alcotest.test_case "golden: v4 tiled matmul" `Quick test_golden_v4_tiled_matmul;
    Alcotest.test_case "golden: conv2d" `Quick test_golden_conv;
    Alcotest.test_case "golden: accel level" `Quick test_golden_accel_level;
    Alcotest.test_case "golden: cpu loops" `Quick test_golden_cpu_loops;
    Alcotest.test_case "golden: every file prints back after a parse" `Quick test_golden_reprint;
    Alcotest.test_case "parse allocation: words per parse_op" `Quick test_parse_allocation;
    Alcotest.test_case "parse allocation: a large module, major heap included" `Quick
      test_large_parse_allocation;
    Alcotest.test_case "parse shares one type per distinct text" `Quick test_shared_types;
    QCheck_alcotest.to_alcotest prop_whitespace_insensitive;
    Alcotest.test_case "deep attribute round trip" `Quick test_deep_attribute_roundtrip;
    Alcotest.test_case "nesting depth cap" `Quick test_depth_cap;
    QCheck_alcotest.to_alcotest prop_mutated_inputs_never_raise;
  ]
