(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV) on the simulated SoC.

   Usage:
     bench/main.exe                 run every experiment
     bench/main.exe fig13 fig16     run selected experiments
     bench/main.exe --quick [...]   trimmed sweeps (harness smoke test)
     bench/main.exe --bechamel      Bechamel wall-clock micro-benchmarks
                                    of the framework itself *)

let experiments =
  [
    ("table1", "Table I: accelerator catalogue", Exp_table1.run);
    ("fig10", "Fig. 10: CPU vs accelerator crossover", Exp_fig10.run);
    ("fig11", "Fig. 11: flows before copy specialisation", Exp_fig11.run);
    ("fig12", "Fig. 12: perf counters, with/without copy specialisation", Exp_fig12.run);
    ("fig13", "Fig. 13: manual vs generated, matched flows", Exp_fig13.run);
    ("fig14", "Fig. 14: v4 tiling/dataflow heuristics", Exp_fig14.run);
    ("fig16", "Fig. 16: ResNet-18 convolution layers", Exp_fig16.run);
    ("fig17", "Fig. 17: TinyBERT end-to-end", Exp_fig17.run);
    ("fig_async", "Async: blocking vs double-buffered transfers", Exp_fig_async.run);
    ("ablation", "Ablation: codegen design choices", Exp_ablation.run);
    ("exp_tune", "Autotuner: design-space exploration gates", Exp_tune.run);
    ("exp_serve", "Serving: multi-accelerator scheduling & tail latency", Exp_serve.run);
    ("exp_graph", "Whole-model graph: residency reuse vs per-kernel baseline", Exp_graph.run);
    ("exp_platform", "Platform search: SoC co-design under an area budget", Exp_platform.run);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the framework itself                   *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let accel () = Presets.matmul ~version:Accel_matmul.V3 ~size:8 ~flow:"Cs" () in
  let compile_small () =
    let bench = Axi4mlir.create (accel ()) in
    ignore (Axi4mlir.compile_matmul bench ~m:16 ~n:16 ~k:16 ())
  in
  let run_generated () =
    let bench = Axi4mlir.create (accel ()) in
    let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:16 ~n:16 ~k:16 in
    let ir = Axi4mlir.compile_matmul bench ~m:16 ~n:16 ~k:16 () in
    Axi4mlir.run_matmul bench ir ~a ~b ~c
  in
  let run_manual () =
    let config = accel () in
    let bench = Axi4mlir.create config in
    let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:16 ~n:16 ~k:16 in
    Manual_matmul.run bench.Axi4mlir.soc config ~flow:"Cs" ~a ~b ~c ()
  in
  let run_cpu () =
    let bench = Axi4mlir.create (accel ()) in
    let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:16 ~n:16 ~k:16 in
    Cpu_reference.matmul bench.Axi4mlir.soc ~a ~b ~c
  in
  let run_conv () =
    let config = Presets.conv () in
    let bench = Axi4mlir.create config in
    let i, w, o =
      Axi4mlir.alloc_conv_operands bench ~n:1 ~ic:4 ~ih:6 ~iw:6 ~oc:2 ~fh:3 ~fw:3
    in
    Manual_conv.run bench.Axi4mlir.soc config ~input:i ~filter:w ~output:o ()
  in
  let heuristic_search () =
    ignore
      (Heuristics.best
         (Presets.matmul ~version:Accel_matmul.V4 ~size:16 ())
         ~m:32 ~n:256 ~k:512)
  in
  let parse_roundtrip () =
    let m = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
    ignore (Parser_ir.parse_op (Printer.to_generic m))
  in
  let config_roundtrip () =
    let config = accel () in
    ignore
      (Config_parser.parse_string_result (Config_parser.to_string Host_config.pynq_z2 config))
  in
  [
    Test.make ~name:"table1-config-roundtrip" (Staged.stage config_roundtrip);
    Test.make ~name:"fig10-cpu-reference" (Staged.stage run_cpu);
    Test.make ~name:"fig11-generated-run" (Staged.stage run_generated);
    Test.make ~name:"fig12-compile-pipeline" (Staged.stage compile_small);
    Test.make ~name:"fig13-manual-driver" (Staged.stage run_manual);
    Test.make ~name:"fig14-heuristic-search" (Staged.stage heuristic_search);
    Test.make ~name:"fig16-conv-layer" (Staged.stage run_conv);
    Test.make ~name:"fig17-ir-print-parse" (Staged.stage parse_roundtrip);
  ]

let run_bechamel () =
  let open Bechamel in
  let test = Test.make_grouped ~name:"axi4mlir" ~fmt:"%s/%s" (bechamel_tests ()) in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "\nBechamel micro-benchmarks (host wall clock, ns/run):";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Printf.sprintf "%12.1f" est
        | Some _ | None -> "           ?"
      in
      rows := (name, estimate) :: !rows)
    results;
  List.iter (fun (name, est) -> Printf.printf "  %-40s %s ns\n" name est) (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --trace DIR / --json DIR consume their value; extract them before
     the generic flag/selection split. *)
  let rec extract_dir flag = function
    | [] -> (None, [])
    | a :: dir :: rest when a = flag ->
      let _, others = extract_dir flag rest in
      (Some dir, others)
    | a :: rest ->
      let dir, others = extract_dir flag rest in
      (dir, a :: others)
  in
  let trace, args = extract_dir "--trace" args in
  let json, args = extract_dir "--json" args in
  (match trace with
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Report.trace_dir := Some dir
  | None -> ());
  (match json with
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Report.json_dir := Some dir;
    Metrics.enable Metrics.default
  | None -> ());
  let bechamel = List.mem "--bechamel" args in
  Report.quick := List.mem "--quick" args;
  let selected =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  if bechamel then run_bechamel ()
  else begin
    let to_run =
      match selected with
      | [] -> experiments
      | names ->
        List.map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) experiments with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" name
                (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
              exit 2)
          names
    in
    print_endline "AXI4MLIR reproduction benchmarks (simulated PYNQ-Z2 SoC)";
    if !Report.quick then print_endline "(--quick mode: trimmed sweeps)";
    List.iter
      (fun (name, descr, f) ->
        Printf.printf "\n>>> %s\n%!" descr;
        Report.begin_experiment name;
        let t0 = Unix.gettimeofday () in
        f ();
        Report.end_experiment ();
        Printf.printf "<<< done in %.1fs (host wall clock)\n%!" (Unix.gettimeofday () -. t0))
      to_run
  end
