(* Fig. 16: ResNet-18 convolution layers, AXI4MLIR-generated vs
   layer-specific manual driver code, normalised to the manual driver.

   The manual driver drains one output row at a time (the natural
   hand-optimised batching); the generated driver's opcode_flow hoists
   the drain all the way out of the spatial loops ("Os": one receive
   per output channel) — the paper's point that flow strategies are
   cheap to obtain with AXI4MLIR and tedious by hand.

   Output rows are sampled (the per-row work is homogeneous) and
   counters scaled, so the full layer set runs in seconds; speedups are
   unaffected because both drivers are sampled identically.

   Paper shape: generated wins on 10 of 11 layers (1.28x avg / 1.54x
   max in the paper); fHW==1 layers see the smallest speedups — one a
   slowdown — because one-element runs cannot leverage the strided copy
   specialisation, while the hand-written driver falls back to a bare
   strided loop. *)

let row_cap () = if !Report.quick then 2 else 4

let run_layer (l : Resnet18.layer) =
  let n = 1 and ic = l.Resnet18.ic and oc = l.Resnet18.oc in
  let fhw = l.Resnet18.fhw and stride = l.Resnet18.stride in
  let full_rows = l.Resnet18.ohw in
  let rows = min full_rows (row_cap ()) in
  let scale = float_of_int full_rows /. float_of_int rows in
  (* simulate [rows] output rows at full output width *)
  let ih = ((rows - 1) * stride) + fhw and iw = l.Resnet18.ihw in
  let run flow use_manual =
    let accel = Presets.conv ~flow () in
    let bench = Axi4mlir.create accel in
    let i, w, o =
      Axi4mlir.alloc_conv_operands ~stride bench ~n ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw
    in
    let counters =
      if use_manual then
        Report.measure bench (fun () ->
            Manual_conv.run bench.Axi4mlir.soc accel ~flow:"Rs" ~stride ~input:i ~filter:w
              ~output:o ())
      else begin
        let ir = Axi4mlir.build_conv_module ~stride ~n ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw () in
        let compiled = Axi4mlir.compile bench ir in
        Report.measure bench (fun () -> Axi4mlir.run_conv bench compiled ~i ~w ~o)
      end
    in
    counters.Perf_counters.cycles *. scale
  in
  (run "Ws" true, run "Os" false)

let run () =
  Report.header
    "Fig. 16: ResNet-18 convolution layers, generated (Os flow) vs manual (row drain)";
  let t =
    Tabulate.create
      [
        ("layer (iHW_iC_fHW_oC_s)", Tabulate.Left);
        ("MACs", Tabulate.Right);
        ("manual ms", Tabulate.Right);
        ("generated ms", Tabulate.Right);
        ("speedup", Tabulate.Right);
      ]
  in
  let speedups = ref [] in
  List.iter
    (fun (l : Resnet18.layer) ->
      let manual, generated = run_layer l in
      let sp = manual /. generated in
      speedups := (l, sp) :: !speedups;
      let to_ms c = c /. 650_000.0 in
      Tabulate.add_row t
        [
          l.Resnet18.label;
          string_of_int (Resnet18.macs l);
          Tabulate.fmt_ms (to_ms manual);
          Tabulate.fmt_ms (to_ms generated);
          Tabulate.fmt_x sp;
        ])
    Resnet18.layers;
  Tabulate.print t;
  let sps = List.map snd !speedups in
  Report.note "speedup vs manual: geomean %s, max %s (paper: avg 1.28x, max 1.54x)"
    (Tabulate.fmt_x (Util.geomean sps))
    (Tabulate.fmt_x (Util.fmax_list sps));
  let fhw1 = List.filter (fun ((l : Resnet18.layer), _) -> l.Resnet18.fhw = 1) !speedups in
  if fhw1 <> [] then
    Report.note "fHW==1 layers (no strided-copy benefit): %s (paper: one 10%% slowdown)"
      (String.concat ", "
         (List.map
            (fun ((l : Resnet18.layer), sp) ->
              Printf.sprintf "%s %s" l.Resnet18.label (Tabulate.fmt_x sp))
            fhw1));
  Report.note "(output rows sampled: %d rows per layer, counters scaled)" (row_cap ())
