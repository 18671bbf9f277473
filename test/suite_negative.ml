(* Failure-injection tests: the compiler and the simulated hardware must
   reject broken configurations loudly rather than mis-execute. *)

let host = Host_config.pynq_z2

let test_codegen_rejects_deep_flow () =
  (* a trait whose flow nests deeper than the loop nest must be caught
     by codegen even if validation were skipped *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let _, g =
    let modul = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
    match
      List.concat_map (fun f -> Ir.find_ops Linalg.is_generic f) (Ir.module_body modul)
    with
    | [ g ] -> (modul, g)
    | _ -> assert false
  in
  let trait =
    {
      Trait.dma_init_config = accel.Accel_config.dma;
      init_opcodes = [ "reset" ];
      accel_dim = [ 4; 4; 4 ];
      permutation = [ 0; 1; 2 ];
      opcode_map = accel.Accel_config.opcode_map;
      (* depth 4 > 3 loops *)
      opcode_flow = Opcode.parse_flow "(sA (sB (cC (rC))))";
      cpu_tile = [ 0; 0; 0 ];
      double_buffer = false;
    }
  in
  let annotated = Trait.attach g trait in
  let b = Builder.create (Ir.context ()) in
  match Accel_codegen.codegen_generic b ~emit_dma_init:true annotated with
  | exception Failure msg ->
    Alcotest.(check bool) "message mentions flow depth" true
      (String.length msg > 0)
  | () -> Alcotest.fail "deep flow accepted by codegen"

let test_send_idx_codegen () =
  (* an opcode using send_idx places the loop index in the stream *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let tagged =
    {
      accel with
      Accel_config.opcode_map =
        accel.Accel_config.opcode_map
        @ [ { Opcode.key = "tag"; actions = [ Opcode.Send_idx (0, 0) ] } ];
      opcode_flows = [ ("Tagged", Opcode.parse_flow "(tag sA sB cC rC)") ];
      selected_flow = "Tagged";
    }
  in
  let modul = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
  let annotated =
    Pass.run_pipeline
      [ Match_annotate.pass ~accel:tagged ~host (); Accel_codegen.pass ]
      modul
  in
  let idx_ops = Ir.find_ops (fun o -> o.Ir.name = "accel.sendIdx") annotated in
  Alcotest.(check int) "one sendIdx per opcode instance" 1 (List.length idx_ops);
  match (List.hd idx_ops).Ir.operands with
  | [ idx; _offset ] ->
    Alcotest.(check bool) "index-typed operand" true (Ty.equal idx.Ir.vty Ty.index)
  | _ -> Alcotest.fail "malformed sendIdx"

let test_device_rejects_protocol_violation () =
  (* a receive with no drain instruction: the device has no queued
     output, so the DMA engine's collection must fail *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let broken =
    {
      accel with
      Accel_config.opcode_map =
        accel.Accel_config.opcode_map
        @ [ { Opcode.key = "rOnly"; actions = [ Opcode.Recv 2 ] } ];
      opcode_flows = [ ("Broken", Opcode.parse_flow "(sA sB cC rOnly)") ];
      selected_flow = "Broken";
    }
  in
  let bench = Axi4mlir.create broken in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:4 ~n:4 ~k:4 in
  let ir = Axi4mlir.compile_matmul bench ~m:4 ~n:4 ~k:4 () in
  match Axi4mlir.run_matmul bench ir ~a ~b ~c with
  | exception Failure msg ->
    Alcotest.(check bool) "device names the shortfall" true (String.length msg > 0)
  | () -> Alcotest.fail "premature receive accepted"

let test_dma_region_overflow_detected () =
  (* an input window too small for one tile transfer *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 () in
  let tiny =
    {
      accel with
      Accel_config.dma =
        { accel.Accel_config.dma with Accel_config.input_buffer_size = 64 };
    }
  in
  let bench = Axi4mlir.create tiny in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:16 ~n:16 ~k:16 in
  let ir = Axi4mlir.compile_matmul bench ~m:16 ~n:16 ~k:16 () in
  match Axi4mlir.run_matmul bench ir ~a ~b ~c with
  | exception Failure msg ->
    Alcotest.(check bool) "overflow reported" true (String.length msg > 0)
  | () -> Alcotest.fail "DMA region overflow accepted"

let test_wrong_engine_opcodes_rejected () =
  (* drive a v1 engine with a v3 opcode map: the decoder must refuse *)
  let v1 = Presets.matmul ~version:Accel_matmul.V1 ~size:4 () in
  let v3 = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let mismatched = { v3 with Accel_config.engine = v1.Accel_config.engine } in
  let bench = Axi4mlir.create mismatched in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:4 ~n:4 ~k:4 in
  let ir = Axi4mlir.compile_matmul bench ~m:4 ~n:4 ~k:4 () in
  match Axi4mlir.run_matmul bench ir ~a ~b ~c with
  | exception Failure msg ->
    Alcotest.(check bool) "decoder names the instruction" true (String.length msg > 0)
  | () -> Alcotest.fail "mismatched micro-ISA accepted"

let test_facade_reports_unoffloadable () =
  (* the facade surfaces the rejection reason instead of silently
     running on the CPU *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 () in
  let bench = Axi4mlir.create accel in
  match Axi4mlir.compile_matmul bench ~m:10 ~n:10 ~k:10 () with
  | exception Match_annotate.Rejected msg ->
    Alcotest.(check bool) "reason included" true (String.length msg > 0)
  | _ -> Alcotest.fail "non-divisible problem silently accepted"

(* ------------------------------------------------------------------ *)
(* Structured parser errors: malformed JSON configurations and counter
   snapshots must come back as field-qualified [Error]s, never as bare
   exceptions.                                                         *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle in
  let rec go i = i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let expect_error name result fragment =
  match result with
  | Ok _ -> Alcotest.fail (name ^ ": malformed input accepted")
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions \"%s\" (got: %s)" name fragment msg)
      true (contains msg fragment)

let test_perf_counters_structured_errors () =
  expect_error "non-object"
    (Perf_counters.of_json_result (Json.List []))
    "expected a JSON object";
  expect_error "unknown counter"
    (Perf_counters.of_json_result (Json.Obj [ ("cycels", Json.Float 1.0) ]))
    "perf_counters.cycels: unknown counter";
  expect_error "non-numeric value"
    (Perf_counters.of_json_result (Json.Obj [ ("cycles", Json.String "fast") ]))
    "perf_counters.cycles";
  expect_error "unknown counter with a zero value"
    (Perf_counters.of_json_result (Json.Obj [ ("bogus", Json.Float 0.0) ]))
    "perf_counters.bogus";
  (* well-formed input still round-trips *)
  let c = Perf_counters.create () in
  c.Perf_counters.cycles <- 42.0;
  match Perf_counters.of_json_result (Perf_counters.to_json c) with
  | Ok c' -> Alcotest.(check (float 0.0)) "round trip" 42.0 c'.Perf_counters.cycles
  | Error msg -> Alcotest.fail msg

let valid_accel_json () = Accel_config.to_json (Presets.matmul ~version:Accel_matmul.V3 ~size:4 ())

let without_key key = function
  | Json.Obj kvs -> Json.Obj (List.remove_assoc key kvs)
  | j -> j

let with_key key v = function
  | Json.Obj kvs -> Json.Obj ((key, v) :: List.remove_assoc key kvs)
  | j -> j

let test_accel_config_structured_errors () =
  (* the valid baseline parses *)
  (match Accel_config.of_json_result (valid_accel_json ()) with
  | Ok config ->
    Alcotest.(check string) "baseline name" "v3_4" config.Accel_config.accel_name
  | Error msg -> Alcotest.fail msg);
  expect_error "non-object" (Accel_config.of_json_result Json.Null) "expected a JSON object";
  expect_error "missing name"
    (Accel_config.of_json_result (without_key "name" (valid_accel_json ())))
    "accel_config.name: missing field";
  expect_error "mistyped dims"
    (Accel_config.of_json_result (with_key "dims" (Json.String "4x4x4") (valid_accel_json ())))
    "accel_config.dims";
  expect_error "unknown engine"
    (Accel_config.of_json_result (with_key "engine" (Json.String "v9") (valid_accel_json ())))
    "accel_config.engine: unknown engine v9";
  expect_error "unknown data type"
    (Accel_config.of_json_result
       (with_key "data_type" (Json.String "f13") (valid_accel_json ())))
    "accel_config.data_type";
  expect_error "bad opcode syntax"
    (Accel_config.of_json_result
       (with_key "opcode_map" (Json.String "sA = [send(") (valid_accel_json ())))
    "accel_config.opcode_map";
  expect_error "missing dma field"
    (Accel_config.of_json_result
       (with_key "dma" (Json.Obj [ ("id", Json.Int 0) ]) (valid_accel_json ())))
    "accel_config.dma.input_address: missing field";
  (* consistency violations surface through the same channel *)
  expect_error "undefined selected flow"
    (Accel_config.of_json_result
       (with_key "flow" (Json.String "Zs") (valid_accel_json ())))
    "selected flow Zs is not defined";
  (* the engine edge sizes the device's buffers: a hostile one is a
     field error, not an allocation failure *)
  let with_size n =
    Accel_config.of_json_result (with_key "size" (Json.Int n) (valid_accel_json ()))
  in
  expect_error "huge engine size" (with_size 1_000_000_000)
    "accel_config.size: exceeds the engine-size ceiling of 64";
  expect_error "negative engine size" (with_size (-4))
    "accel_config.size: must be positive";
  (match with_size Accel_config.max_engine_size with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("an engine at the ceiling is legal: " ^ msg));
  (* the buffer capacity and throughput size the device model: a
     non-positive one is a field error, not a crash or an infinite
     cycle count *)
  let with_field key v =
    Accel_config.of_json_result (with_key key v (valid_accel_json ()))
  in
  List.iter
    (fun (what, key, v) ->
      expect_error what (with_field key v) (key ^ ": must be positive"))
    [
      ("zero buffer", "buffer_elems", Json.Int 0);
      ("negative buffer", "buffer_elems", Json.Int (-5));
      ("zero throughput", "ops_per_cycle", Json.Float 0.0);
      ("negative throughput", "ops_per_cycle", Json.Float (-1.0));
      ("NaN throughput", "ops_per_cycle", Json.Float Float.nan);
    ];
  (* DMA regions are sized from the file: a huge one is refused before
     anything allocates it *)
  let with_dma field bytes =
    let json = valid_accel_json () in
    let dma = match json with Json.Obj kvs -> List.assoc "dma" kvs | j -> j in
    Accel_config.of_json_result (with_key "dma" (with_key field (Json.Int bytes) dma) json)
  in
  expect_error "huge input region"
    (with_dma "input_buffer_size" (1 lsl 50))
    "dma.input_buffer_size: exceeds the 16 MiB ceiling";
  expect_error "huge output region"
    (with_dma "output_buffer_size" (Accel_config.max_dma_buffer_bytes + 1))
    "dma.output_buffer_size: exceeds the 16 MiB ceiling";
  expect_error "empty input region"
    (with_dma "input_buffer_size" 0)
    "dma.input_buffer_size: must be positive";
  match with_dma "input_buffer_size" Accel_config.max_dma_buffer_bytes with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("a region at the ceiling is legal: " ^ msg)

let test_config_parser_structured_errors () =
  expect_error "invalid JSON" (Config_parser.parse_string_result "{ nope") "config:";
  expect_error "missing cpu section"
    (Config_parser.parse_string_result "{\"accelerator\": {}}")
    "missing \"cpu\" section";
  expect_error "missing accelerator section"
    (Config_parser.parse_string_result
       "{\"cpu\": {\"frequency_mhz\": 650.0, \"caches\": [{\"size_kb\": 32, \"assoc\": 4}]}}")
    "missing \"accelerator\" section";
  expect_error "cpu field error"
    (Config_parser.parse_string_result
       "{\"cpu\": {\"caches\": [{\"size_kb\": 32, \"assoc\": 4}]}, \"accelerator\": {}}")
    "cpu.frequency_mhz: missing field";
  expect_error "unreadable file"
    (Config_parser.parse_file_result "/nonexistent/config.json")
    "/nonexistent/config.json";
  (* the round trip through to_string stays parseable *)
  let host = Host_config.pynq_z2 in
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:8 () in
  match Config_parser.parse_string_result (Config_parser.to_string host accel) with
  | Ok (host', accel') ->
    Alcotest.(check string) "cpu name survives" host.Host_config.cpu_name
      host'.Host_config.cpu_name;
    Alcotest.(check string) "accel name survives" accel.Accel_config.accel_name
      accel'.Accel_config.accel_name
  | Error msg -> Alcotest.fail msg

let error_of = function Ok _ -> "Ok" | Error msg -> msg

let test_config_non_object () =
  Alcotest.(check string) "top-level array" "config: expected a JSON object"
    (error_of (Config_parser.parse_string_result "[]"));
  expect_error "non-object cpu section"
    (Config_parser.parse_string_result {|{"cpu": [], "accelerator": {}}|})
    "cpu: expected a JSON object"

(* A cache level Cache.create would reject is a field error of the
   config, named with the file's field names. *)
let test_cache_geometry_errors () =
  let decode cache =
    error_of
      (Host_config.of_json_result
         (Json.of_string (Printf.sprintf {|{"frequency_mhz": 650, "caches": [%s]}|} cache)))
  in
  List.iter
    (fun (cache, expected) -> Alcotest.(check string) cache expected (decode cache))
    [
      ({|{"size_kb": 32, "assoc": 0}|}, "cpu.caches[0].assoc: must be positive");
      ({|{"size_kb": 32, "assoc": 3}|}, "cpu.caches[0].assoc: must be a power of two");
      ({|{"size_kb": 48, "assoc": 6}|}, "cpu.caches[0].assoc: must be a power of two");
      ( {|{"size_kb": 32, "line_bytes": 0, "assoc": 4}|},
        "cpu.caches[0].line_bytes: must be a power of two" );
      ({|{"size_kb": 48, "assoc": 4}|}, "cpu.caches[0].size_kb: must be a power of two");
      ( {|{"size_kb": 1, "line_bytes": 512, "assoc": 4}|},
        "cpu.caches[0].size_kb: must be a multiple of line_bytes * assoc" );
      ( {|{"size_kb": 1099511627776, "assoc": 8}|},
        "cpu.caches[0].size_kb: exceeds the 64 MiB ceiling" );
      ( {|{"size_kb": 131072, "assoc": 8}|},
        "cpu.caches[0].size_kb: exceeds the 64 MiB ceiling" );
      (* 1024 * size_kb would wrap round to 1024: clamped, not wrapped *)
      ( {|{"size_kb": 9007199254740993, "assoc": 1}|},
        "cpu.caches[0].size_kb: exceeds the 64 MiB ceiling" );
      (* line_bytes * assoc would overflow to zero *)
      ( {|{"size_kb": 32, "line_bytes": 2147483648, "assoc": 4294967296}|},
        "cpu.caches[0].size_kb: must be a multiple of line_bytes * assoc" );
      (* 64 MiB of 1-byte lines would allocate a 64M-entry array *)
      ( {|{"size_kb": 65536, "line_bytes": 1, "assoc": 8}|},
        "cpu.caches[0].line_bytes: must be at least 32 for this size (the 2097152-line \
         ceiling)" );
      (* ... while the same level at the default 32-byte line stays legal *)
      ({|{"size_kb": 65536, "assoc": 8}|}, "Ok");
      ({|{"size_kb": 32, "assoc": 4}|}, "Ok");
    ]

(* The cost model prices L1, L2 and DRAM: any other depth is a field
   error, not a silently mis-costed hierarchy. *)
let test_cache_level_count () =
  let decode caches =
    error_of
      (Host_config.of_json_result
         (Json.of_string (Printf.sprintf {|{"frequency_mhz": 650, "caches": [%s]}|} caches)))
  in
  let level = {|{"size_kb": 32, "assoc": 4}|} in
  let levels n = String.concat ", " (List.init n (fun _ -> level)) in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check string) (Printf.sprintf "%d levels" n) expected (decode (levels n)))
    [
      (0, "cpu.caches: must list 1 or 2 levels (L1, then L2), found 0");
      (1, "Ok");
      (2, "Ok");
      (3, "cpu.caches: must list 1 or 2 levels (L1, then L2), found 3");
    ]

let test_fuzz_case_structured_errors () =
  expect_error "invalid JSON" (Fuzz_case.of_string_result "{") "case: invalid JSON";
  expect_error "non-object" (Fuzz_case.of_string_result "[1, 2]") "expected a JSON object";
  expect_error "missing field"
    (Fuzz_case.of_string_result "{\"engine\": \"v3\"}")
    "case.size: missing field";
  let with_fields fields =
    let case = Fuzz_case.to_json (Fuzz_gen.case_at ~seed:7 ~index:0 ()) in
    Json.to_string
      (List.fold_left (fun json (key, v) -> with_key key (Json.of_string v) json) case fields)
  in
  List.iter
    (fun (name, fields, expected) ->
      Alcotest.(check string) name expected
        (error_of (Fuzz_case.of_string_result (with_fields fields))))
    [
      ( "zero stride",
        [
          ("engine", {|"conv"|});
          ("size", "0");
          ( "workload",
            {|{"kind": "conv", "ic": 1, "ihw": 4, "oc": 1, "fhw": 1, "stride": 0}|} );
        ],
        "case.workload.stride: must be positive" );
      ( "negative extent",
        [
          ("engine", {|"v3"|});
          ("size", "4");
          ("workload", {|{"kind": "matmul", "m": -4, "n": 4, "k": 4}|});
        ],
        "case.workload.m: must be positive" );
      ( "zero engine size",
        [ ("engine", {|"v3"|}); ("size", "0") ],
        "case.size: must be positive" );
      ( "huge engine size",
        [ ("engine", {|"v3"|}); ("size", "1000000000") ],
        "case.size: exceeds the engine-size ceiling of 64" );
      ("zero tile", [ ("tiles", "[4, 0, 4]") ], "case.tiles[1]: must be positive");
      ( "zero DMA buffer",
        [ ("dma_buffer_bytes", "0") ],
        "case.dma_buffer_bytes: must be positive" );
      ( "huge DMA buffer",
        [ ("dma_buffer_bytes", "1125899906842624") ],
        "case.dma_buffer_bytes: exceeds the 16 MiB ceiling" );
    ];
  let valid = Fuzz_gen.case_at ~seed:7 ~index:0 () in
  let line = Json.to_string (Fuzz_case.to_json valid) in
  match Fuzz_case.of_string_result line with
  | Ok case -> Alcotest.(check bool) "round trip" true (Fuzz_case.equal valid case)
  | Error msg -> Alcotest.fail msg

let test_preset_lookup_structured_errors () =
  (* an unknown preset name lists every valid preset *)
  (match Presets.find_by_name "v5_16" with
  | Ok _ -> Alcotest.fail "unknown preset accepted"
  | Error msg ->
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "error lists %s (got: %s)" name msg)
          true (contains msg name))
      Presets.names);
  (* a flow the engine does not support lists the supported flows *)
  (match Presets.find_by_name ~flow:"Cs" "v2_8" with
  | Ok _ -> Alcotest.fail "v2 does not support Cs"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error lists supported flows (got: %s)" msg)
      true
      (contains msg "As" && contains msg "Bs" && contains msg "Ns"));
  expect_error "unknown conv flow" (Presets.find_by_name ~flow:"Cs" "conv2d") "Ws"

let test_workload_spec_structured_errors () =
  expect_error "garbage spec" (Tune_workload.of_spec "cube:1,2,3") "matmul:M,N,K";
  expect_error "missing dims" (Tune_workload.of_spec "matmul:64,64") "matmul";
  expect_error "non-numeric" (Tune_workload.of_spec "matmul:a,b,c") "bad workload spec";
  expect_error "filter larger than input" (Tune_workload.of_spec "conv:4,2,8,3") "conv";
  expect_error "unknown resnet layer"
    (Tune_workload.of_spec "resnet18/999_1_1_1_1")
    "unknown resnet18 layer"

(* ------------------------------------------------------------------ *)
(* Token linearity: the verifier must reject async IR where a transfer
   token is leaked, double-waited, or waited before being produced —
   with a structured [Pass.Pass_failure] naming the offending op.      *)
(* ------------------------------------------------------------------ *)

let verify_only = Pass.make "verify-only" (fun m -> m)

let token_module build =
  let f =
    Func.func_op (Ir.context ()) ~name:"tokens" ~args:[] (fun b _ ->
        build b;
        Func.return_op b [])
  in
  Ir.module_op [ f ]

let expect_pass_failure name m ~op ~fragment =
  match Pass.run_pipeline [ verify_only ] m with
  | exception Pass.Pass_failure { failing_op; message; _ } ->
    Alcotest.(check string) (name ^ ": failing op named") op failing_op;
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions \"%s\" (got: %s)" name fragment message)
      true (contains message fragment)
  | _ -> Alcotest.fail (name ^ ": broken token IR verified clean")

let test_unwaited_token_rejected () =
  expect_pass_failure "leaked token"
    (token_module (fun b -> ignore (Accel.start_send b)))
    ~op:"accel.start_send" ~fragment:"is never waited"

let test_double_waited_token_rejected () =
  expect_pass_failure "double wait"
    (token_module (fun b ->
         let t = Accel.start_send b in
         Accel.wait b ~token:t;
         Accel.wait b ~token:t))
    ~op:"accel.start_send" ~fragment:"consumed 2 times (must be exactly once)"

let test_wait_on_undefined_token_rejected () =
  (* a wait whose operand was never produced trips the SSA check, which
     runs before linearity and points at the wait itself *)
  expect_pass_failure "undefined token"
    (token_module (fun b -> Accel.wait b ~token:(Builder.fresh b Ty.token)))
    ~op:"accel.wait" ~fragment:"use of undefined value"

(* ------------------------------------------------------------------ *)
(* Serving simulator: malformed streams, policies and scheduler
   parameters must come back as structured [Error]s, never mis-run.    *)
(* ------------------------------------------------------------------ *)

let test_serve_structured_errors () =
  expect_error "unknown policy" (Serve_policy.of_string "warp") "unknown scheduling policy";
  expect_error "unknown model spec"
    (Serve_cost.models_of_specs [ "resnet19" ])
    "resnet19";
  expect_error "empty spec list" (Serve_cost.models_of_specs []) "at least one";
  let stream ?(count = 4) ?(mean_gap = 10.0) ?(models = [ "m" ]) () =
    Serve_request.generate
      { Serve_request.st_seed = 0; st_count = count; st_mean_gap = mean_gap; st_models = models }
  in
  expect_error "negative request count" (stream ~count:(-1) ()) "request count";
  expect_error "zero mean gap" (stream ~mean_gap:0.0 ()) "mean inter-arrival gap";
  expect_error "no models" (stream ~models:[] ()) "at least one model";
  let params ?(accels = 1) ?queue_cap ?(batch_max = 1) () =
    Serve_sim.validate
      {
        Serve_sim.sp_accels = accels;
        sp_policy = Serve_policy.Fifo;
        sp_queue_cap = queue_cap;
        sp_batch_max = batch_max;
      }
  in
  expect_error "zero accelerators" (params ~accels:0 ()) "at least one accelerator";
  expect_error "zero batch limit" (params ~batch_max:0 ()) "batch size limit";
  expect_error "zero queue capacity" (params ~queue_cap:0 ()) "queue capacity";
  (* a non-positive service oracle must fail the run, not hang it *)
  let requests = [ { Serve_request.rq_id = 0; rq_arrival = 0.0; rq_model = "m" } ] in
  expect_error "non-positive service time"
    (Serve_sim.run
       ~service:(fun _ ~batch:_ -> 0.0)
       ~predict:(fun _ -> 1.0)
       {
         Serve_sim.sp_accels = 1;
         sp_policy = Serve_policy.Fifo;
         sp_queue_cap = None;
         sp_batch_max = 1;
       }
       requests)
    "service cycles must be positive"

let test_slo_telemetry_structured_errors () =
  (* every malformed --slo spec must come back as a grammar-citing
     [Error] — the CLI maps these to exit 124 *)
  expect_error "empty spec" (Slo.parse "   ") "empty SLO spec";
  expect_error "unknown objective" (Slo.parse "latency<=10") "unknown SLO objective";
  expect_error "unsupported percentile" (Slo.parse "p42<=10")
    "unsupported latency percentile p42";
  expect_error "missing comparator" (Slo.parse "p99") "malformed latency objective";
  expect_error "wrong latency comparator" (Slo.parse "p99<10") "latency objectives use <=";
  expect_error "non-positive limit" (Slo.parse "p99<=0") "latency limit must be positive";
  expect_error "malformed limit" (Slo.parse "p99<=fast") "malformed latency limit";
  expect_error "wrong availability comparator"
    (Slo.parse "availability=99%")
    "availability objectives use >=";
  expect_error "availability above 100%"
    (Slo.parse "availability>=150%")
    "strictly between 0 and 100%";
  expect_error "malformed target" (Slo.parse "availability>=often")
    "malformed availability target";
  expect_error "zero burn window" (Slo.parse "p99<=10@0") "burn-rate window count must be >= 1";
  expect_error "malformed burn window" (Slo.parse "p99<=10@soon")
    "malformed burn-rate window count";
  (* valid forms normalise to the canonical rendering *)
  (match Slo.parse " p99<=250000 " with
  | Ok spec -> Alcotest.(check string) "canonical latency" "p99<=250000@4" (Slo.to_string spec)
  | Error msg -> Alcotest.fail msg);
  (match Slo.parse "availability>=0.999@6" with
  | Ok spec ->
    Alcotest.(check string) "canonical availability" "availability>=99.9%@6"
      (Slo.to_string spec)
  | Error msg -> Alcotest.fail msg);
  (* collector construction rejects degenerate parameters *)
  expect_error "zero window width" (Timeseries.create ~window:0.0) "window width must be positive";
  expect_error "negative telemetry window"
    (Serve_telemetry.create ~window:(-5.0) ~accels:1)
    "window width must be positive";
  expect_error "no accelerators"
    (Serve_telemetry.create ~window:100.0 ~accels:0)
    "accels >= 1"

let tests =
  [
    Alcotest.test_case "codegen rejects over-deep flows" `Quick test_codegen_rejects_deep_flow;
    Alcotest.test_case "send_idx code generation" `Quick test_send_idx_codegen;
    Alcotest.test_case "device rejects premature receive" `Quick
      test_device_rejects_protocol_violation;
    Alcotest.test_case "DMA region overflow detected" `Quick test_dma_region_overflow_detected;
    Alcotest.test_case "mismatched micro-ISA rejected" `Quick test_wrong_engine_opcodes_rejected;
    Alcotest.test_case "facade reports unoffloadable ops" `Quick
      test_facade_reports_unoffloadable;
    Alcotest.test_case "perf counters: structured parse errors" `Quick
      test_perf_counters_structured_errors;
    Alcotest.test_case "accel config: structured parse errors" `Quick
      test_accel_config_structured_errors;
    Alcotest.test_case "config parser: structured parse errors" `Quick
      test_config_parser_structured_errors;
    Alcotest.test_case "config parser: non-object document" `Quick test_config_non_object;
    Alcotest.test_case "host config: cache geometry errors" `Quick
      test_cache_geometry_errors;
    Alcotest.test_case "host config: one or two cache levels" `Quick test_cache_level_count;
    Alcotest.test_case "fuzz case: structured parse errors" `Quick
      test_fuzz_case_structured_errors;
    Alcotest.test_case "preset lookup: structured errors" `Quick
      test_preset_lookup_structured_errors;
    Alcotest.test_case "workload specs: structured errors" `Quick
      test_workload_spec_structured_errors;
    Alcotest.test_case "verifier rejects unwaited token" `Quick test_unwaited_token_rejected;
    Alcotest.test_case "verifier rejects double-waited token" `Quick
      test_double_waited_token_rejected;
    Alcotest.test_case "verifier rejects wait on undefined token" `Quick
      test_wait_on_undefined_token_rejected;
    Alcotest.test_case "serving: structured errors" `Quick test_serve_structured_errors;
    Alcotest.test_case "slo + telemetry: structured errors" `Quick
      test_slo_telemetry_structured_errors;
  ]
