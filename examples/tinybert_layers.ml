(* Per-shape breakdown of the TinyBERT MatMuls (the workload behind the
   paper's Fig. 17): for every shape class in the encoder, the CPU
   (-O3 model) time, the generated v4_16 drivers under Ns and under the
   Best heuristic, and the heuristic's chosen configuration.

     dune exec examples/tinybert_layers.exe *)

let batch = 2
let seq = 128

let () =
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  let shapes = Tinybert.matmul_shapes ~batch ~seq in
  let t =
    Tabulate.create
      [
        ("shape", Tabulate.Left);
        ("MxNxK", Tabulate.Left);
        ("count", Tabulate.Right);
        ("CPU ms/inst", Tabulate.Right);
        ("Ns ms/inst", Tabulate.Right);
        ("Best ms/inst", Tabulate.Right);
        ("Best config", Tabulate.Left);
      ]
  in
  let to_ms c = c /. 650_000.0 in
  List.iter
    (fun (s : Tinybert.matmul_shape) ->
      let bench = Axi4mlir.create accel in
      (* CPU at true shapes *)
      let a, b, c =
        Axi4mlir.alloc_matmul_operands bench ~m:s.Tinybert.m ~n:s.Tinybert.n ~k:s.Tinybert.k
      in
      let cpu =
        Axi4mlir.measure bench (fun () ->
            Cpu_reference.matmul_optimized bench.Axi4mlir.soc ~a ~b ~c ~sample_rows:8 ())
      in
      (* accelerated at 16-padded shapes *)
      let m = Tinybert.pad16 s.Tinybert.m
      and n = Tinybert.pad16 s.Tinybert.n
      and k = Tinybert.pad16 s.Tinybert.k in
      let run options =
        let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
        let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
        let counters =
          Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
        in
        counters.Perf_counters.cycles -. Dma_library.init_cycles
      in
      let ns =
        run { Axi4mlir.default_codegen with flow = Some "Ns"; tiles = Some [ 16; 16; 16 ] }
      in
      let best_cycles, best_config =
        match Heuristics.best accel ~m ~n ~k with
        | Some choice ->
          ( run (Heuristics.options_of_choice accel choice),
            Printf.sprintf "%s %d,%d,%d" choice.Heuristics.flow choice.Heuristics.tm
              choice.Heuristics.tn choice.Heuristics.tk )
        | None -> (nan, "-")
      in
      Tabulate.add_row t
        [
          s.Tinybert.mm_name;
          Printf.sprintf "%dx%dx%d" s.Tinybert.m s.Tinybert.n s.Tinybert.k;
          string_of_int s.Tinybert.count;
          Tabulate.fmt_ms (to_ms cpu.Perf_counters.cycles);
          Tabulate.fmt_ms (to_ms ns);
          Tabulate.fmt_ms (to_ms best_cycles);
          best_config;
        ])
    shapes;
  Tabulate.print
    ~title:
      (Printf.sprintf "TinyBERT encoder MatMuls (batch=%d, seq=%d) on %s" batch seq
         accel.Accel_config.accel_name)
    t;
  print_endline
    "\nPer-instance times; multiply by count for whole-model figures (Fig. 17\n\
     amortises the one-time DMA bring-up app-wide, subtracted here)."
