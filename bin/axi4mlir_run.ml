(* axi4mlir-run: compile-and-execute tool.

   Compiles a linalg module against an accelerator configuration, runs
   it on the simulated SoC with deterministic random inputs, verifies
   the result against the pure oracle (for the known op kinds) and
   prints the performance counters.

     dune exec bin/axi4mlir_run.exe -- --config accel.json --matmul 64,64,64
     dune exec bin/axi4mlir_run.exe -- --config accel.json --matmul 64,64,64 --cpu
*)

open Cmdliner

(* Whole-model graph mode (--graph): no --config — the graph's engine
   kind picks its preset. Runs the per-kernel baseline, and with
   --residency also the residency-planned execution, verifying the two
   are bit-identical on every graph output. *)
let run_graph_mode ~model ~residency ~batch ~width ~graph_json =
  let g =
    match Graph_build.of_name ~width model with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let accel_nodes =
    Array.to_list g.Graph_ir.g_nodes
    |> List.filter (fun nd -> Graph_ir.is_accel nd.Graph_ir.nd_op)
    |> List.length
  in
  Printf.printf "model        : %s (%d nodes, %d accelerated, %d MACs)\n"
    g.Graph_ir.g_name (Array.length g.g_nodes) accel_nodes (Graph_ir.macs g);
  Printf.printf "batch        : %d\n" batch;
  let base = Graph_exec.run ~batch ~residency:false g in
  let words r = Graph_exec.result_dma_words r in
  Printf.printf "baseline     : %.0f cycles, %.0f DMA words\n"
    base.Graph_exec.rs_counters.Perf_counters.cycles (words base);
  let report_run =
    if not residency then base
    else begin
      let resd = Graph_exec.run ~batch ~residency:true g in
      Printf.printf
        "residency    : %.0f cycles, %.0f DMA words (%d skipped; %d chained \
         edges, %d stationary, %d fallback)\n"
        resd.Graph_exec.rs_counters.Perf_counters.cycles (words resd)
        resd.Graph_exec.rs_skipped_words
        (Graph_residency.chained_edges resd.Graph_exec.rs_plan)
        (Graph_residency.stationary_nodes resd.Graph_exec.rs_plan)
        (Graph_residency.fallback_nodes g resd.Graph_exec.rs_plan);
      let identical = Graph_exec.outputs_equal base resd in
      Printf.printf "bit-identity : %s\n" (if identical then "PASS" else "FAIL");
      if not identical then failwith "residency execution changed output bytes";
      if words resd >= words base then
        Printf.printf "note         : residency saved no DMA words on this plan\n"
      else
        Printf.printf "savings      : %.1f%% of baseline DMA words elided\n"
          (100.0 *. (1.0 -. (words resd /. words base)));
      resd
    end
  in
  (match graph_json with
  | Some path ->
    Graph_report.write report_run ~path;
    Printf.printf "graph report : %s (%s)\n" path Graph_report.schema
  | None -> ());
  `Ok ()

let run_tool config_path matmul conv flow tiles coalesce double_buffer cpu_only
    trace_out timing remarks metrics_out doctor critical_path graph residency batch
    width graph_json =
  Tool_common.with_observability ~remarks ~metrics:metrics_out @@ fun () ->
  match graph with
  | Some model ->
    if matmul <> None || conv <> None then
      failwith "--graph cannot be combined with --matmul/--conv";
    let batch = Tool_common.positive ~flag:"batch" batch
    and width = Tool_common.positive ~flag:"width" width in
    run_graph_mode ~model ~residency ~batch ~width ~graph_json
  | None ->
  if residency then failwith "--residency requires --graph";
  let config_path =
    match config_path with Some p -> p | None -> failwith "--config is required"
  in
  let host, accel =
    match Config_parser.parse_file_result config_path with
    | Ok parsed -> parsed
    | Error msg -> failwith msg
  in
  let bench = Axi4mlir.create ~host accel in
  (* Compile-side events are wall-clock; they get their own tracer so
     the measured run's reset (which clears the SoC tracer) cannot drop
     them. *)
  let compile_tracer = Trace.create () in
  let stats = ref [] in
  if trace_out <> None then begin
    Trace.enable compile_tracer ~clock:(fun () -> Sys.time () *. 1e6);
    ignore (Axi4mlir.enable_tracing bench)
  end;
  let stats = Some stats and tracer = Some compile_tracer in
  let options =
    {
      Axi4mlir.default_codegen with
      flow;
      tiles = Option.map (Tool_common.parse_ints ~flag:"tiles") tiles;
      coalesce_transfers = coalesce;
      double_buffer;
    }
  in
  let counters, diff =
    match (matmul, conv) with
    | Some dims, None ->
      let m, n, k = Tool_common.matmul_dims ~flag:"matmul" dims in
      let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
      let gold =
        Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b)
      in
      let counters =
        if cpu_only then begin
          let ir =
            Axi4mlir.compile_cpu ?stats ?tracer
              (Axi4mlir.build_matmul_module ~m ~n ~k ())
          in
          Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)
        end
        else begin
          let ir =
            Axi4mlir.compile bench ~options ?stats ?tracer
              (Axi4mlir.build_matmul_module ~m ~n ~k ())
          in
          Axi4mlir.measure bench (fun () ->
              Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
        end
      in
      (counters, Gold.max_abs_diff gold (Memref_view.to_array c))
    | None, Some dims ->
      let ic, ihw, oc, fhw = Tool_common.conv_dims ~flag:"conv" dims in
      let i, w, o =
        Axi4mlir.alloc_conv_operands bench ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw
      in
      let gold =
        Gold.conv2d ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw
          (Memref_view.to_array i) (Memref_view.to_array w)
      in
      let ir = Axi4mlir.build_conv_module ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw () in
      let compiled =
        if cpu_only then Axi4mlir.compile_cpu ?stats ?tracer ir
        else Axi4mlir.compile bench ~options ?stats ?tracer ir
      in
      let counters =
        Axi4mlir.measure bench (fun () ->
            Axi4mlir.run_conv bench ~options compiled ~i ~w ~o)
      in
      (counters, Gold.max_abs_diff gold (Memref_view.to_array o))
    | _ -> failwith "exactly one of --matmul or --conv is required"
  in
  Printf.printf "task clock   : %.3f ms\n" (Axi4mlir.task_clock_ms bench counters);
  Printf.printf "counters     : %s\n" (Perf_counters.to_string counters);
  Printf.printf "max |error|  : %g (%s)\n" diff (if diff < 1e-9 then "PASS" else "FAIL");
  Tool_common.run_doctor bench.Axi4mlir.soc ~doctor ~critical_path;
  if timing then
    print_string (Pass.report_stats (match stats with Some r -> !r | None -> []));
  (match trace_out with
  | Some path ->
    let run_events = Trace.events (Axi4mlir.tracer bench) in
    let events = Trace.events compile_tracer @ run_events in
    let cpu_freq_mhz = host.Host_config.frequency_mhz in
    Chrome_trace.write_file ~cpu_freq_mhz
      ~track_names:(Soc.engine_track_names bench.Axi4mlir.soc)
      path events;
    Printf.printf "trace        : %d events -> %s (load in ui.perfetto.dev)\n"
      (List.length events) path;
    let cost = bench.Axi4mlir.soc.Soc.cost in
    print_newline ();
    print_string
      (Perf_report.render ~cpu_freq_mhz
         ~bus_words_per_cpu_cycle:cost.Cost_model.bus_words_per_cpu_cycle
         ~accel_freq_mhz:accel.Accel_config.frequency_mhz
         ~total:(Perf_counters.fields counters)
         run_events)
  | None -> ());
  if diff < 1e-9 then `Ok () else `Error (false, "result mismatch")

let config =
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE"
         ~doc:"Accelerator/host configuration (JSON).")

let matmul =
  Arg.(value & opt (some string) None & info [ "matmul" ] ~docv:"M,N,K"
         ~doc:"Run a matmul of this shape.")

let conv =
  Arg.(value & opt (some string) None & info [ "conv" ] ~docv:"IC,IHW,OC,FHW"
         ~doc:"Run a conv2d of this shape (batch 1, square input/filter).")

let flow =
  Arg.(value & opt (some string) None & info [ "flow" ] ~docv:"NAME"
         ~doc:"Override the configured opcode flow.")

let tiles =
  Arg.(value & opt (some string) None & info [ "tiles" ] ~docv:"TM,TN,TK"
         ~doc:"Tile override for flexible engines.")

let coalesce = Arg.(value & flag & info [ "coalesce" ] ~doc:"Coalesce DMA transfers.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON of the run (Perfetto-loadable) \
               and print a perf-report phase breakdown.")

let timing =
  Arg.(value & flag & info [ "timing" ]
         ~doc:"Print a per-pass execution timing report (like mlir-opt -mlir-timing).")
let double_buffer = Arg.(value & flag & info [ "double-buffer" ] ~doc:"Ping-pong sends.")
let cpu_only = Arg.(value & flag & info [ "cpu" ] ~doc:"CPU-only lowering instead.")

let graph =
  Arg.(value & opt (some string) None & info [ "graph" ] ~docv:"MODEL"
         ~doc:"Run a whole-model graph (resnet18 or tinybert) instead of a \
               single kernel. No --config needed: the graph's engine kind \
               selects its preset.")

let residency =
  Arg.(value & flag & info [ "residency" ]
         ~doc:"With --graph: also run the residency-planned execution \
               (weight-stationary reuse, accel-to-accel chaining) and verify \
               it is bit-identical to the per-kernel baseline.")

let batch =
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N"
         ~doc:"With --graph: images per forward pass (batch > 1 enables \
               weight-stationary reuse).")

let width =
  Arg.(value & opt int 8 & info [ "width" ] ~docv:"N"
         ~doc:"With --graph resnet18: stage-1 channel width (later stages \
               scale 2/4/8x).")

let graph_json =
  Arg.(value & opt (some string) None & info [ "graph-json" ] ~docv:"FILE"
         ~doc:"With --graph: write the axi4mlir-graph-v1 run artifact to \
               $(docv).")

let cmd =
  let doc = "compile a linalg op for an AXI accelerator and run it on the simulated SoC" in
  Cmd.v
    (Cmd.info "axi4mlir-run" ~doc)
    Term.(
      ret
        (const run_tool $ config $ matmul $ conv $ flow $ tiles $ coalesce $ double_buffer
       $ cpu_only $ trace_out $ timing $ Tool_common.remarks_flag
       $ Tool_common.metrics_out $ Tool_common.doctor_flag
       $ Tool_common.critical_path_out $ graph $ residency $ batch $ width
       $ graph_json))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
