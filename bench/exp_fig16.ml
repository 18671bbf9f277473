(* Fig. 16: ResNet-18 convolution layers, AXI4MLIR-generated vs
   layer-specific manual driver code, normalised to the manual driver.

   The manual driver drains one output row at a time (the natural
   hand-optimised batching); the generated driver's opcode_flow hoists
   the drain all the way out of the spatial loops ("Os": one receive
   per output channel) — the paper's point that flow strategies are
   cheap to obtain with AXI4MLIR and tedious by hand.

   Every layer is simulated exactly: the full input plane, every output
   row and channel, no counter scaling. --quick caps the output
   channels at [quick_oc_cap] and simulates that smaller layer exactly;
   the per-channel work is homogeneous, so the speedups stay within a
   few hundredths of the full run's.

   Paper shape: generated wins on 10 of 11 layers (1.28x avg / 1.54x
   max in the paper); fHW==1 layers see the smallest speedups — one a
   slowdown — because one-element runs cannot leverage the strided copy
   specialisation, while the hand-written driver falls back to a bare
   strided loop. The run fails unless generated beats manual on every
   fHW==3 layer and the fHW==1 layers have the three smallest
   speedups. *)

let quick_oc_cap = 8

let fail fmt = Printf.ksprintf failwith fmt

(* the layer as simulated: whole, or with its output channels capped *)
let simulated (l : Resnet18.layer) =
  if !Report.quick then { l with Resnet18.oc = min l.Resnet18.oc quick_oc_cap } else l

let run_layer (l : Resnet18.layer) =
  let n = 1 and ic = l.Resnet18.ic and oc = l.Resnet18.oc in
  let fhw = l.Resnet18.fhw and stride = l.Resnet18.stride in
  let ih = l.Resnet18.ihw and iw = l.Resnet18.ihw in
  let run flow use_manual =
    let accel = Presets.conv ~flow () in
    let bench = Axi4mlir.create accel in
    let i, w, o =
      Axi4mlir.alloc_conv_operands ~stride bench ~n ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw
    in
    let dims = [ ih; ic; fhw; oc; stride ] in
    let counters =
      if use_manual then begin
        Report.set_context "manual_conv" dims;
        Report.measure bench (fun () ->
            Manual_conv.run bench.Axi4mlir.soc accel ~flow:"Rs" ~stride ~input:i ~filter:w
              ~output:o ())
      end
      else begin
        let ir = Axi4mlir.build_conv_module ~stride ~n ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw () in
        let compiled = Axi4mlir.compile bench ir in
        Report.set_context "generated_conv" dims;
        Report.measure bench (fun () -> Axi4mlir.run_conv bench compiled ~i ~w ~o)
      end
    in
    counters.Perf_counters.cycles
  in
  (run "Ws" true, run "Os" false)

(* The paper's shape as a hard gate. *)
let check_shape speedups =
  List.iter
    (fun ((l : Resnet18.layer), sp) ->
      if l.Resnet18.fhw = 3 && sp <= 1.0 then
        fail "fig16: generated does not beat manual on fHW==3 layer %s (%.3fx)"
          l.Resnet18.label sp)
    speedups;
  let fhw1, others =
    List.partition (fun ((l : Resnet18.layer), _) -> l.Resnet18.fhw = 1) speedups
  in
  let highest_fhw1 = List.fold_left (fun acc (_, sp) -> Float.max acc sp) 0.0 fhw1
  and lowest_other =
    List.fold_left (fun acc (_, sp) -> Float.min acc sp) infinity others
  in
  if highest_fhw1 >= lowest_other then
    fail "fig16: an fHW==1 layer (%.3fx) is not below every other layer (min %.3fx)"
      highest_fhw1 lowest_other

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
  let speedups =
    List.map
      (fun (l : Resnet18.layer) ->
        let sim = simulated l in
        let manual, generated = run_layer sim in
        let sp = manual /. generated in
        let to_ms c = c /. 650_000.0 in
        Tabulate.add_row t
          [
            l.Resnet18.label;
            string_of_int (Resnet18.macs sim);
            Tabulate.fmt_ms (to_ms manual);
            Tabulate.fmt_ms (to_ms generated);
            Tabulate.fmt_x sp;
          ];
        (l, sp))
      Resnet18.layers
  in
  Tabulate.print t;
  let sps = List.map snd speedups in
  Report.note "speedup vs manual: geomean %s, max %s (paper: avg 1.28x, max 1.54x)"
    (Tabulate.fmt_x (Util.geomean sps))
    (Tabulate.fmt_x (Util.fmax_list sps));
  let fhw1 = List.filter (fun ((l : Resnet18.layer), _) -> l.Resnet18.fhw = 1) speedups in
  if fhw1 <> [] then
    Report.note "fHW==1 layers (no strided-copy benefit): %s (paper: one 10%% slowdown)"
      (String.concat ", "
         (List.map
            (fun ((l : Resnet18.layer), sp) ->
              Printf.sprintf "%s %s" l.Resnet18.label (Tabulate.fmt_x sp))
            fhw1));
  if !Report.quick then
    Report.note "(every layer simulated exactly, output channels capped at %d)"
      quick_oc_cap
  else Report.note "(every layer simulated exactly)";
  check_shape speedups
