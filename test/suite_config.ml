(* Tests for the configuration layer: presets, JSON round-trips, traits. *)

let all_matmul_presets () =
  List.concat_map
    (fun version ->
      List.map
        (fun size -> Presets.matmul ~version ~size ())
        Presets.table1_sizes)
    [ Accel_matmul.V1; Accel_matmul.V2; Accel_matmul.V3; Accel_matmul.V4 ]

let test_presets_validate () =
  List.iter
    (fun config ->
      match Accel_config.validate config with
      | Ok () -> ()
      | Error msg ->
        Alcotest.fail (Printf.sprintf "%s: %s" config.Accel_config.accel_name msg))
    (Presets.conv () :: all_matmul_presets ())

let test_preset_flows_per_version () =
  Alcotest.(check (list string)) "v1" [ "Ns" ] (Presets.matmul_flows Accel_matmul.V1);
  Alcotest.(check (list string)) "v2" [ "Ns"; "As"; "Bs" ] (Presets.matmul_flows Accel_matmul.V2);
  Alcotest.(check (list string)) "v3" [ "Ns"; "As"; "Bs"; "Cs" ]
    (Presets.matmul_flows Accel_matmul.V3);
  Alcotest.(check (list string)) "v4" [ "Ns"; "As"; "Bs"; "Cs" ]
    (Presets.matmul_flows Accel_matmul.V4);
  (match Presets.matmul ~version:Accel_matmul.V1 ~size:4 ~flow:"As" () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "v1 accepted As")

let test_table1_throughputs () =
  Alcotest.(check (float 0.0)) "size 4" 10.0 (Accel_matmul.ops_per_cycle_for_size 4);
  Alcotest.(check (float 0.0)) "size 8" 60.0 (Accel_matmul.ops_per_cycle_for_size 8);
  Alcotest.(check (float 0.0)) "size 16" 112.0 (Accel_matmul.ops_per_cycle_for_size 16)

let test_config_json_roundtrip () =
  List.iter
    (fun config ->
      let host = Host_config.pynq_z2 in
      let text = Config_parser.to_string host config in
      let host', config' = Result.get_ok (Config_parser.parse_string_result text) in
      Alcotest.(check string) "accel name survives" config.Accel_config.accel_name
        config'.Accel_config.accel_name;
      Alcotest.(check bool) "host equal" true (host = host');
      Alcotest.(check bool) "config equal" true (config = config'))
    (Presets.conv () :: all_matmul_presets ())

let test_config_json_errors () =
  let bad_flow =
    {|{"cpu": {"name": "x", "frequency_mhz": 650, "caches": [{"size_kb": 32, "assoc": 4}]},
       "accelerator": {"name": "a", "engine": "v3", "size": 4, "operation": "matmul",
        "data_type": "f32", "dims": [4,4,4], "buffer_elems": 16,
        "frequency_mhz": 200, "ops_per_cycle": 10,
        "dma": {"id": 0, "input_address": 66, "input_buffer_size": 65280,
                "output_address": 65346, "output_buffer_size": 65280},
        "opcode_map": "sA = [send(0)]",
        "opcode_flows": {"Ns": "(sA)"},
        "flow": "Missing",
        "init_opcodes": "()"}}|}
  in
  (match Config_parser.parse_string_result bad_flow with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined selected flow accepted");
  let bad_engine = {|{"cpu": {"frequency_mhz": 650, "caches": [{"size_kb": 32, "assoc": 4}]}, "accelerator": {"name": "a", "engine": "v9"}}|} in
  match Config_parser.parse_string_result bad_engine with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown engine accepted"

(* A clock frequency that is zero, negative or not finite is rejected
   where the JSON is read, naming the field. *)
let test_frequency_must_be_positive () =
  let cpu f =
    Host_config.of_json_result
      (Json.of_string
         (Printf.sprintf
            {|{"frequency_mhz": %s,
               "caches": [{"size_kb": 32, "line_bytes": 32, "assoc": 4}]}|}
            f))
  in
  List.iter
    (fun f ->
      match cpu f with
      | Error msg -> Alcotest.(check string) f "cpu.frequency_mhz: must be positive" msg
      | Ok _ -> Alcotest.failf "cpu.frequency_mhz %s accepted" f)
    [ "0.0"; "-650"; "1e999" ];
  Alcotest.(check bool) "650 MHz accepted" true (Result.is_ok (cpu "650"));
  let accel = Accel_config.to_json (Presets.conv ()) in
  let with_frequency f =
    match accel with
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "frequency_mhz" then (k, Json.Float f) else (k, v))
           kvs)
    | other -> other
  in
  List.iter
    (fun f ->
      match Accel_config.of_json_result (with_frequency f) with
      | Error msg ->
        Alcotest.(check string)
          (string_of_float f) "accel_config.frequency_mhz: must be positive" msg
      | Ok _ -> Alcotest.failf "accelerator frequency_mhz %g accepted" f)
    [ 0.0; -5.0; Float.nan ]

let test_with_flow () =
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:8 () in
  let cs = Accel_config.with_flow config "Cs" in
  Alcotest.(check string) "selected" "Cs" cs.Accel_config.selected_flow;
  match Accel_config.with_flow config "Zs" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown flow accepted"

let sample_trait () =
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"As" () in
  {
    Trait.dma_init_config = config.Accel_config.dma;
    init_opcodes = [ "reset" ];
    accel_dim = [ 4; 4; 4 ];
    permutation = [ 0; 2; 1 ];
    opcode_map = config.Accel_config.opcode_map;
    opcode_flow = Accel_config.flow_exn config "As";
    cpu_tile = [ 0; 0; 0 ];
    double_buffer = false;
  }

let test_trait_roundtrip () =
  let trait = sample_trait () in
  let op = Trait.attach (Ir.op "linalg.generic") trait in
  match Trait.of_op op with
  | Some decoded -> Alcotest.(check bool) "roundtrip" true (decoded = trait)
  | None -> Alcotest.fail "trait not decoded"

let test_trait_validate () =
  let trait = sample_trait () in
  Alcotest.(check bool) "valid" true (Trait.validate trait ~n_dims:3 ~n_args:3 = Ok ());
  let bad_perm = { trait with Trait.permutation = [ 0; 0; 1 ] } in
  Alcotest.(check bool) "bad permutation" true
    (Result.is_error (Trait.validate bad_perm ~n_dims:3 ~n_args:3));
  let bad_dim = { trait with Trait.accel_dim = [ 4; 4 ] } in
  Alcotest.(check bool) "bad accel_dim arity" true
    (Result.is_error (Trait.validate bad_dim ~n_dims:3 ~n_args:3));
  let bad_init = { trait with Trait.init_opcodes = [ "nope" ] } in
  Alcotest.(check bool) "undefined init opcode" true
    (Result.is_error (Trait.validate bad_init ~n_dims:3 ~n_args:3))

let test_host_config () =
  let host = Host_config.pynq_z2 in
  Alcotest.(check int) "L1" (32 * 1024) (Host_config.l1_bytes host);
  Alcotest.(check int) "LLC" (512 * 1024) (Host_config.last_level_cache_bytes host);
  let empty = { host with Host_config.caches = [] } in
  Alcotest.(check int) "no caches" 0 (Host_config.l1_bytes empty)

let test_attach_creates_engine () =
  let soc = Soc.create () in
  let config = Presets.matmul ~version:Accel_matmul.V2 ~size:8 () in
  let engine = Accel_config.attach soc config in
  Alcotest.(check int) "capacity from config" (0xFF00 / 4)
    (Dma_engine.in_capacity_words engine);
  Alcotest.(check string) "device name" "v2_8"
    (Dma_engine.device engine).Accel_device.device_name

let test_buffer_capacity_check () =
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let inflated = { config with Accel_config.buffer_capacity_elems = 1_000_000 } in
  Alcotest.(check bool) "inconsistent capacity rejected" true
    (Result.is_error (Accel_config.validate inflated))

let tests =
  [
    Alcotest.test_case "presets validate" `Quick test_presets_validate;
    Alcotest.test_case "flows per version" `Quick test_preset_flows_per_version;
    Alcotest.test_case "Table I throughputs" `Quick test_table1_throughputs;
    Alcotest.test_case "config JSON roundtrip" `Quick test_config_json_roundtrip;
    Alcotest.test_case "config JSON errors" `Quick test_config_json_errors;
    Alcotest.test_case "frequency must be positive" `Quick test_frequency_must_be_positive;
    Alcotest.test_case "with_flow" `Quick test_with_flow;
    Alcotest.test_case "trait attach/decode roundtrip" `Quick test_trait_roundtrip;
    Alcotest.test_case "trait validation" `Quick test_trait_validate;
    Alcotest.test_case "host config" `Quick test_host_config;
    Alcotest.test_case "attach creates the engine" `Quick test_attach_creates_engine;
    Alcotest.test_case "buffer capacity consistency" `Quick test_buffer_capacity_check;
  ]
