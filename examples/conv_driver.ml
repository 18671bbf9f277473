(* Driving the Conv2D accelerator (the paper's Sec. IV-D): compile
   linalg.conv_2d_nchw_fchw against the conv engine, inspect the
   generated accel-dialect host code (the Fig. 15b structure), and run
   a ResNet-18 layer on the simulated SoC under each flow.

     dune exec examples/conv_driver.exe -- [layer-label]
   e.g. dune exec examples/conv_driver.exe -- 7_512_3_512_1          *)

let () =
  let label = if Array.length Sys.argv > 1 then Sys.argv.(1) else "14_256_3_256_1" in
  let layer =
    match Resnet18.find label with
    | Some l -> l
    | None ->
      Printf.eprintf "unknown layer %s; available:\n  %s\n" label
        (String.concat "\n  " (List.map (fun (l : Resnet18.layer) -> l.Resnet18.label) Resnet18.layers));
      exit 2
  in
  let ic = layer.Resnet18.ic and oc = layer.Resnet18.oc and fhw = layer.Resnet18.fhw in
  let stride = layer.Resnet18.stride in
  (* keep the run snappy: a few output rows at full width *)
  let rows = 4 in
  let ih = ((rows - 1) * stride) + fhw and iw = layer.Resnet18.ihw in
  let ow = Gold.conv_out iw ~fhw ~stride in
  Printf.printf "Layer %s: iC=%d oC=%d fHW=%d stride=%d (simulating %d output rows x %d)\n\n"
    label ic oc fhw stride rows ow;

  (* Show the generated accel-level host code for a toy instance. *)
  let accel = Presets.conv ~flow:"Ws" () in
  let bench = Axi4mlir.create accel in
  let toy = Axi4mlir.build_conv_module ~n:1 ~ic:2 ~ih:4 ~iw:4 ~oc:2 ~fh:3 ~fw:3 () in
  let toy_accel =
    Axi4mlir.compile bench
      ~options:{ Axi4mlir.default_codegen with to_runtime_calls = false }
      toy
  in
  print_endline "Generated conv host code (accel dialect, toy instance, Ws flow):";
  print_string (Printer.to_pretty toy_accel);
  print_newline ();

  (* Run the layer under every flow and compare. *)
  let t =
    Tabulate.create
      [
        ("flow", Tabulate.Left);
        ("task clock ms", Tabulate.Right);
        ("DMA txns", Tabulate.Right);
        ("words sent", Tabulate.Right);
        ("correct", Tabulate.Left);
      ]
  in
  List.iter
    (fun flow ->
      let accel = Presets.conv ~flow () in
      let bench = Axi4mlir.create accel in
      let i, w, o =
        Axi4mlir.alloc_conv_operands ~stride bench ~n:1 ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw
      in
      let gold =
        Gold.conv2d ~stride ~n:1 ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw (Memref_view.to_array i)
          (Memref_view.to_array w)
      in
      let ir = Axi4mlir.build_conv_module ~stride ~n:1 ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw () in
      let compiled = Axi4mlir.compile bench ir in
      let counters =
        Axi4mlir.measure bench (fun () -> Axi4mlir.run_conv bench compiled ~i ~w ~o)
      in
      let ok = Gold.max_abs_diff gold (Memref_view.to_array o) < 1e-9 in
      Tabulate.add_row t
        [
          flow;
          Tabulate.fmt_ms (Axi4mlir.task_clock_ms bench counters);
          Printf.sprintf "%.0f" counters.Perf_counters.dma_transactions;
          Printf.sprintf "%.0f" counters.Perf_counters.dma_words_sent;
          (if ok then "yes" else "NO");
        ])
    [ "Ns"; "Ws"; "Os" ];
  Tabulate.print ~title:"Flows compared (generated drivers)" t;
  print_endline
    "\nNs re-sends the weight slice per pixel; Ws keeps it stationary per output\n\
     channel; Os additionally hoists the output drain out of the spatial loops."
