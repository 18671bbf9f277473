(* Whole-model graphs: buffer residency vs the per-kernel baseline on
   a full ResNet-18 forward pass (every layer, dataflow edges and all —
   not the tuner's row-sampled per-layer proxies).

   Two regimes, both verified bit-identical to the per-kernel baseline
   on every graph output:

   - batch 1: accel->accel chaining. Each basic block's conv1->conv2
     edge keeps the intermediate activation on the engine (cv_accept /
     cv_patch_resident), so it never crosses the bus in either
     direction.
   - batch 2: weight-stationary reuse. Each conv runs filter-major
     across the batch, so every weight slice crosses the bus once per
     forward pass instead of once per image.

   Hard gates (a violation fails the harness, and through @bench-check
   the tier-1 run):
   - residency moves STRICTLY fewer DMA words than the baseline in
     both regimes — the savings are genuinely absent bus traffic, not
     post-hoc discounting;
   - all 8 block edges chain at batch 1 and all 20 convolutions go
     weight-stationary at batch 2;
   - outputs are bit-identical in both regimes. *)

let conv_config_hash =
  Benchdiff.config_hash (Accel_config.to_json (Presets.conv ~flow:"Os" ()))

let words = Graph_exec.result_dma_words

let record name (r : Graph_exec.result) ~width =
  Report.record_custom_point
    ~kind:(Printf.sprintf "graph_%s" name)
    ~dims:[ width; r.Graph_exec.rs_batch ]
    ~config:conv_config_hash
    [
      ("cycles", r.Graph_exec.rs_counters.Perf_counters.cycles);
      ("dma_words", words r);
      ("dma_words_skipped", float_of_int r.Graph_exec.rs_skipped_words);
      ("chained_edges", float_of_int (Graph_residency.chained_edges r.Graph_exec.rs_plan));
      ( "stationary_nodes",
        float_of_int (Graph_residency.stationary_nodes r.Graph_exec.rs_plan) );
      ( "fallback_nodes",
        float_of_int
          (Graph_residency.fallback_nodes r.Graph_exec.rs_graph r.Graph_exec.rs_plan) );
    ]

let run () =
  Report.header "Whole-model graph: residency reuse vs the per-kernel baseline";
  let quick = !Report.quick in
  let width = if quick then 2 else 8 in
  let g = Graph_build.resnet18 ~width () in
  let convs =
    Array.to_list g.Graph_ir.g_nodes
    |> List.filter (fun nd -> Graph_ir.is_accel nd.Graph_ir.nd_op)
    |> List.length
  in
  Report.note "%s: %d nodes (%d conv), %d MACs, full forward pass" g.Graph_ir.g_name
    (Array.length g.Graph_ir.g_nodes) convs (Graph_ir.macs g);
  let regime ~batch ~label ~expect =
    let base = Graph_exec.run ~batch ~residency:false g in
    let resd = Graph_exec.run ~batch ~residency:true g in
    record "baseline" base ~width;
    record "residency" resd ~width;
    if not (Graph_exec.outputs_equal base resd) then
      failwith
        (Printf.sprintf "graph gate: residency changed output bytes (batch %d)" batch);
    if not (words resd < words base) then
      failwith
        (Printf.sprintf
           "graph gate: residency did not strictly reduce DMA words at batch %d \
            (%.0f vs %.0f)"
           batch (words resd) (words base));
    expect resd.Graph_exec.rs_plan;
    Report.note
      "batch %d (%s): %.0f -> %.0f DMA words (%.1f%% elided, %d skipped), %.0f -> \
       %.0f cycles"
      batch label (words base) (words resd)
      (100.0 *. (1.0 -. (words resd /. words base)))
      resd.Graph_exec.rs_skipped_words base.Graph_exec.rs_counters.Perf_counters.cycles
      resd.Graph_exec.rs_counters.Perf_counters.cycles
  in
  regime ~batch:1 ~label:"accel->accel chaining" ~expect:(fun plan ->
      let chained = Graph_residency.chained_edges plan in
      if chained <> 8 then
        failwith
          (Printf.sprintf "graph gate: expected 8 chained block edges, planned %d"
             chained));
  regime ~batch:2 ~label:"weight-stationary" ~expect:(fun plan ->
      let stationary = Graph_residency.stationary_nodes plan in
      if stationary <> convs then
        failwith
          (Printf.sprintf
             "graph gate: expected all %d convs weight-stationary, planned %d" convs
             stationary))
