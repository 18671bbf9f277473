(* Integrating a brand-new accelerator, end to end, the way an
   accelerator designer would (the paper's co-design loop):

   1. write the configuration file for the new engine (here: a v2-style
      MatMul engine with a fused sBcCrC opcode, exactly the Fig. 6a
      example);
   2. validate and save it;
   3. let AXI4MLIR generate drivers for each flow the engine supports;
   4. measure them and iterate on the flow choice.

     dune exec examples/custom_accelerator.exe *)

let () =
  (* The Fig. 6a accelerator: a 4x4x4 engine with a fused
     send-B/compute/receive-C opcode enabling the A-stationary flow. *)
  let opcode_map =
    Opcode.parse_map
      "opcode_map<reset = [send_literal(0xFF)], sA = [send_literal(0x22), send(0)], sB = \
       [send_literal(0x23), send(1)], sBcCrC = [send_literal(0x25), send(1), recv(2)]>"
  in
  let accel =
    {
      Accel_config.accel_name = "fig6a_accelerator";
      engine = Accel_config.Matmul_engine (Accel_matmul.V2, 4);
      op_kind = "matmul";
      data_type = Ty.F32;
      accel_dims = [ 4; 4; 4 ];
      flexible = false;
      buffer_capacity_elems = 16;
      frequency_mhz = 200.0;
      ops_per_cycle = 10.0;
      dma =
        {
          Accel_config.dma_id = 0;
          input_address = 0x42;
          input_buffer_size = 0xFF00;
          output_address = 0xFF42;
          output_buffer_size = 0xFF00;
        };
      opcode_map;
      opcode_flows =
        [
          ("Ns", Opcode.parse_flow "(sA sBcCrC)");
          ("As", Opcode.parse_flow "(sA (sBcCrC))");
        ];
      selected_flow = "As";
      init_opcodes = [ "reset" ];
    }
  in
  (match Accel_config.validate accel with
  | Ok () -> print_endline "configuration validates"
  | Error msg ->
    Printf.eprintf "invalid configuration: %s\n" msg;
    exit 1);

  (* Save it the way a project would check it in. *)
  let path = Filename.temp_file "fig6a_accelerator" ".json" in
  Config_parser.write_file path Host_config.pynq_z2 accel;
  Printf.printf "wrote %s\n" path;
  (match Config_parser.parse_file_result path with
  | Ok (_host, reloaded) -> assert (reloaded = accel)
  | Error msg -> failwith msg);

  (* 0x25 is the engine's fused load-B/compute/drain instruction, so
     one opcode moves B in, runs the tile MAC, and streams C out —
     which is what makes the A-stationary flow one transfer pair per
     inner iteration. *)
  let m, n, k = (32, 48, 16) in
  Printf.printf "\nproblem: %dx%dx%d\n" m n k;
  List.iter
    (fun flow ->
      let config = Accel_config.with_flow accel flow in
      let bench = Axi4mlir.create config in
      let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
      let gold = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
      let ir = Axi4mlir.compile_matmul bench ~m ~n ~k () in
      let counters =
        Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)
      in
      Printf.printf "  flow %s: %.3f ms, %3.0f txns, A-tiles sent %s, correct=%b\n" flow
        (Axi4mlir.task_clock_ms bench counters)
        counters.Perf_counters.dma_transactions
        (if flow = "As" then "once per (m,k)" else "every iteration")
        (Gold.max_abs_diff gold (Memref_view.to_array c) < 1e-9))
    [ "Ns"; "As" ];
  Sys.remove path
