(* Quickstart: describe an accelerator, compile a matmul against it,
   inspect the generated host code, and run it on the simulated SoC.

     dune exec examples/quickstart.exe *)

(* 1. The accelerator + host description — the Fig. 5 configuration
   file. In a real project this lives in a .json file next to your
   build; Config_parser.parse_file_result reads it. *)
let config_text =
  {|{
  "cpu": {
    "name": "cortex-a9",
    "frequency_mhz": 650.0,
    "caches": [
      { "size_kb": 32, "line_bytes": 32, "assoc": 4 },
      { "size_kb": 512, "line_bytes": 32, "assoc": 8 }
    ]
  },
  "accelerator": {
    "name": "v3_16",
    "engine": "v3",
    "size": 16,
    "operation": "matmul",
    "data_type": "f32",
    "dims": [16, 16, 16],
    "flexible": false,
    "buffer_elems": 256,
    "frequency_mhz": 200.0,
    "ops_per_cycle": 112.0,
    "dma": {
      "id": 0,
      "input_address": 66,
      "input_buffer_size": 65280,
      "output_address": 65346,
      "output_buffer_size": 65280
    },
    "opcode_map": "opcode_map<reset = [send_literal(0xFF)], sA = [send_literal(0x22), send(0)], sB = [send_literal(0x23), send(1)], cC = [send_literal(0xF0)], rC = [send_literal(0x24), recv(2)]>",
    "opcode_flows": {
      "Ns": "opcode_flow<(sA sB cC rC)>",
      "As": "opcode_flow<(sA (sB cC rC))>",
      "Cs": "opcode_flow<((sA sB cC) rC)>"
    },
    "flow": "Cs",
    "init_opcodes": "opcode_flow<(reset)>"
  }
}|}

let () =
  let host, accel =
    match Config_parser.parse_string_result config_text with
    | Ok parsed -> parsed
    | Error msg -> failwith msg
  in
  Printf.printf "Loaded accelerator '%s' (%s flow) for host '%s'\n\n"
    accel.Accel_config.accel_name accel.Accel_config.selected_flow
    host.Host_config.cpu_name;

  (* 2. A workbench: simulated SoC with the accelerator attached. *)
  let bench = Axi4mlir.create ~host accel in

  (* 3. The application: a 64x64x64 matmul, as a linalg.generic. *)
  let m, n, k = (64, 64, 64) in
  let app = Axi4mlir.build_matmul_module ~m ~n ~k () in

  (* 4. Compile. Stop at the accel dialect first to see the Fig. 6b
     structure the paper describes... *)
  let accel_level =
    Axi4mlir.compile bench
      ~options:{ Axi4mlir.default_codegen with to_runtime_calls = false }
      app
  in
  print_endline "Generated host code (accel dialect, pretty-printed):";
  print_string (Printer.to_pretty accel_level);

  (* ...then compile for real, down to DMA runtime calls. *)
  let compiled = Axi4mlir.compile bench app in

  (* 5. Run on the simulated SoC and check the result. *)
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let expected = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
  let counters = Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench compiled ~a ~b ~c) in
  Printf.printf "\nAccelerated run:  %.3f ms  (%s)\n"
    (Axi4mlir.task_clock_ms bench counters)
    (Perf_counters.to_string counters);
  Printf.printf "max |generated - oracle| = %g\n"
    (Gold.max_abs_diff expected (Memref_view.to_array c));

  (* 6. Compare with CPU-only execution of the same linalg op. *)
  Memref_view.fill_from c (Array.make (m * n) 0.0);
  let cpu_ir = Axi4mlir.compile_cpu (Axi4mlir.build_matmul_module ~m ~n ~k ()) in
  let cpu = Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench cpu_ir ~a ~b ~c) in
  Printf.printf "CPU-only run:     %.3f ms\n" (Axi4mlir.task_clock_ms bench cpu);
  Printf.printf "offload speedup:  %.2fx\n"
    (cpu.Perf_counters.cycles /. counters.Perf_counters.cycles)
