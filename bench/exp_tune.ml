(* Autotuner experiment: design-space exploration against the paper's
   hand-picked configurations and the heuristic defaults.

   Three hard gates (any regression fails the bench run, and through
   the blessed BENCH_exp_tune.json artifact the @bench-check alias):

   - the grid tuner over the Fig. 13 space must return a matmul config
     at least as fast as the best hand-picked (type, size, flow) from
     exp_fig13's sweep at the same dims;
   - the greedy strategy must reach within 5% of the grid best using at
     most a quarter of the grid's pipeline evaluations;
   - on a ResNet-18 layer, the tuned conv config must be strictly
     faster than the heuristic default (the Ws-flow driver). *)

let fail fmt = Printf.ksprintf failwith fmt

(* Measure one candidate on a fresh SoC, recording a bench point. *)
let measure_candidate kind label workload candidate =
  match Tune_space.config_of_candidate candidate with
  | Error msg -> fail "exp_tune: %s: %s" label msg
  | Ok config ->
    let options = Tune_space.codegen_of_candidate candidate in
    let bench, run = Tune_eval.prepare ~batch:1 config ~options workload in
    Report.set_context kind (Tune_workload.dims workload);
    (Report.measure bench run).Perf_counters.cycles

let best_of label (report : Tune_report.t) =
  match report.Tune_report.rp_results with
  | [ r ] -> (
    match r.Tune_report.r_best with
    | Some b -> (r, b)
    | None -> fail "exp_tune: %s: tuner returned no config" label)
  | _ -> fail "exp_tune: %s: expected exactly one workload result" label

let run () =
  Report.header "Autotuner: design-space exploration vs hand-picked and heuristic configs";
  let t =
    Tabulate.create
      [
        ("workload", Tabulate.Left);
        ("strategy", Tabulate.Left);
        ("evals", Tabulate.Right);
        ("best config", Tabulate.Left);
        ("cycles", Tabulate.Right);
        ("vs reference", Tabulate.Right);
      ]
  in

  (* -------------------- matmul: the Fig. 13 space ------------------ *)
  let dims = if !Report.quick then 64 else 128 in
  let workload = Tune_workload.Matmul { m = dims; n = dims; k = dims } in
  let named label = { Tune_workload.wl_label = label; wl_workload = workload } in
  let tune strategy label =
    Tuner.tune
      { Tuner.default_options with strategy; space = Tune_space.fig13 }
      [ named label ]
  in
  let grid_result, grid_best = best_of "grid" (tune Tune_strategy.Grid "fig13-grid") in
  (* the exp_fig13 sweep's hand-picked (type, size, flow) points at
     these dims, all inside the fig13 space *)
  let hand_picked =
    [ ("v1", 16, "Ns"); ("v2", 16, "As"); ("v3", 16, "Ns"); ("v3", 16, "Cs") ]
  in
  let hand_cycles =
    List.map
      (fun (engine, size, flow) ->
        let candidate =
          {
            Tune_space.cd_engine = engine;
            cd_size = size;
            cd_flow = flow;
            cd_tiles = None;
            cd_dma_bytes = None;
            cd_double_buffer = false;
          }
        in
        ( Printf.sprintf "%s_%d/%s" engine size flow,
          measure_candidate "hand_matmul"
            (Printf.sprintf "hand-picked %s_%d/%s" engine size flow)
            workload candidate ))
      hand_picked
  in
  let best_hand_name, best_hand =
    List.fold_left
      (fun (bn, bc) (n, c) -> if c < bc then (n, c) else (bn, bc))
      (List.hd hand_cycles) (List.tl hand_cycles)
  in
  let tuned_cycles =
    measure_candidate "tuned_matmul" "grid winner" workload
      grid_best.Tune_report.bs_candidate
  in
  Tabulate.add_row t
    [
      Printf.sprintf "matmul %d^3" dims;
      "grid";
      string_of_int grid_result.Tune_report.r_evaluated;
      Tune_space.candidate_to_string grid_best.Tune_report.bs_candidate;
      Printf.sprintf "%.0f" tuned_cycles;
      Tabulate.fmt_x (best_hand /. tuned_cycles);
    ];
  if tuned_cycles > best_hand then
    fail "exp_tune: grid tuner (%.0f cycles) lost to hand-picked %s (%.0f cycles)"
      tuned_cycles best_hand_name best_hand;

  (* -------------------- greedy vs grid ----------------------------- *)
  let greedy_result, greedy_best =
    best_of "greedy" (tune (Tune_strategy.Greedy { seed = 0; budget = None }) "fig13-greedy")
  in
  Tabulate.add_row t
    [
      Printf.sprintf "matmul %d^3" dims;
      "greedy";
      string_of_int greedy_result.Tune_report.r_evaluated;
      Tune_space.candidate_to_string greedy_best.Tune_report.bs_candidate;
      Printf.sprintf "%.0f" greedy_best.Tune_report.bs_cycles;
      Tabulate.fmt_x (grid_best.Tune_report.bs_cycles /. greedy_best.Tune_report.bs_cycles);
    ];
  (* both runs measure the mandatory heuristic baseline once; compare
     strategy-driven evaluations only *)
  let grid_evals = grid_result.Tune_report.r_evaluated - 1
  and greedy_evals = greedy_result.Tune_report.r_evaluated - 1 in
  if greedy_evals * 4 > grid_evals then
    fail "exp_tune: greedy used %d/%d evaluations (budget: 25%%)" greedy_evals grid_evals;
  if greedy_best.Tune_report.bs_cycles > 1.05 *. grid_best.Tune_report.bs_cycles then
    fail "exp_tune: greedy best %.0f is more than 5%% off the grid best %.0f"
      greedy_best.Tune_report.bs_cycles grid_best.Tune_report.bs_cycles;

  (* -------------------- ResNet-18 conv layer ----------------------- *)
  (* row-sampled layer proxy (the layer's first output rows at full
     width); quick mode takes the cheap first layer (ic=3) at one
     output row *)
  let rows = if !Report.quick then 1 else 2 in
  let layer_label = if !Report.quick then "resnet18/224_3_7_64_2" else "resnet18/56_64_3_64_1" in
  let layer =
    match
      List.find_opt
        (fun (n : Tune_workload.named) -> n.Tune_workload.wl_label = layer_label)
        (Tune_workload.resnet18_layers ~rows ())
    with
    | Some l -> l
    | None -> fail "exp_tune: unknown layer %s" layer_label
  in
  let conv_report =
    Tuner.tune
      { Tuner.default_options with strategy = Tune_strategy.Grid; space = Tune_space.default }
      [ layer ]
  in
  let conv_result, conv_best = best_of "conv" conv_report in
  let heuristic_cycles =
    match conv_result.Tune_report.r_baseline with
    | Some (_, cycles) -> cycles
    | None -> fail "exp_tune: no heuristic baseline for %s" layer_label
  in
  ignore
    (measure_candidate "tuned_conv" "conv winner" layer.Tune_workload.wl_workload
       conv_best.Tune_report.bs_candidate);
  Tabulate.add_row t
    [
      layer_label;
      "grid";
      string_of_int conv_result.Tune_report.r_evaluated;
      Tune_space.candidate_to_string conv_best.Tune_report.bs_candidate;
      Printf.sprintf "%.0f" conv_best.Tune_report.bs_cycles;
      Tabulate.fmt_x (heuristic_cycles /. conv_best.Tune_report.bs_cycles);
    ];
  if conv_best.Tune_report.bs_cycles >= heuristic_cycles then
    fail "exp_tune: tuned conv (%.0f cycles) did not beat the heuristic default (%.0f)"
      conv_best.Tune_report.bs_cycles heuristic_cycles;

  Tabulate.print t;
  Report.note "grid matmul winner %s; best hand-picked %s (%.0f cycles)"
    (Tune_space.candidate_to_string grid_best.Tune_report.bs_candidate)
    best_hand_name best_hand;
  Report.note "greedy reached %.1f%% of grid best with %d/%d evaluations"
    (100.0 *. grid_best.Tune_report.bs_cycles /. greedy_best.Tune_report.bs_cycles)
    greedy_evals grid_evals;
  Report.note "conv layer %s: tuned %s is %s over the Ws heuristic default" layer_label
    (Tune_space.candidate_to_string conv_best.Tune_report.bs_candidate)
    (Tabulate.fmt_x (heuristic_cycles /. conv_best.Tune_report.bs_cycles))
