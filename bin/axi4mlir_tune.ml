(* axi4mlir-tune: cost-model-driven design-space exploration over
   accelerator configurations.

     dune exec bin/axi4mlir_tune.exe -- --workload matmul:64,64,64
     dune exec bin/axi4mlir_tune.exe -- --workload resnet18 --strategy greedy --seed 7
     dune exec bin/axi4mlir_tune.exe -- --workload matmul:128,128,128 --space fig13 \
       --cache tune-cache.json --report tune-report.json
     dune exec bin/axi4mlir_tune.exe -- --list-space
*)

open Cmdliner

let space_of_name = function
  | "default" -> Ok Tune_space.default
  | "fig13" -> Ok Tune_space.fig13
  | "quick" -> Ok Tune_space.quick
  | other ->
    Error
      (Printf.sprintf "unknown search space %S (valid spaces: default, fig13, quick)"
         other)

let platform_space_of_name = function
  | "default" -> Ok Platform_search.default_space
  | "quick" -> Ok Platform_search.quick_space
  | other ->
    Error
      (Printf.sprintf "unknown platform search space %S (valid spaces: default, quick)"
         other)

(* --platform-search: explore the SoC half of the co-design space —
   engine mix, DMA channels, AXI beat width — under --area-budget,
   scoring every candidate through the serving oracle on a fixed
   request stream. *)
let run_platform_search ~workload_spec ~space_name ~strategy_name ~seed ~budget
    ~area_budget ~platform_out ~requests ~rps =
  let fail_on_error = function Ok v -> v | Error msg -> failwith msg in
  let spec =
    match workload_spec with
    | Some spec -> spec
    | None ->
      failwith
        "--platform-search needs --workload (the request mix every candidate \
         platform serves)"
  in
  let pspace = fail_on_error (platform_space_of_name space_name) in
  let strategy = fail_on_error (Tune_strategy.of_string ~seed ?budget strategy_name) in
  let models = fail_on_error (Serve_cost.models_of_specs [ spec ]) in
  let freq_mhz = Cost_model.default.Cost_model.cpu_freq_mhz in
  let reqs =
    fail_on_error
      (Serve_request.generate
         {
           Serve_request.st_seed = seed;
           st_count = requests;
           st_mean_gap = freq_mhz *. 1e6 /. rps;
           st_models = [ spec ];
         })
  in
  let measure =
    Platform_search.default_measure ~policy:Serve_policy.Fifo ~models ~requests:reqs ()
  in
  let outcome =
    fail_on_error (Platform_search.search ~strategy ?area_budget ~measure pspace)
  in
  print_string (Platform_search.render outcome);
  (match platform_out with
  | None -> ()
  | Some path -> (
    match Platform_search.pick_winner outcome with
    | None ->
      failwith
        "--platform-out: no candidate beat the baseline on throughput-per-resource \
         while holding p99 (nothing to write)"
    | Some w ->
      Platform_ir.write_file path w.Platform_search.pt_platform;
      Printf.eprintf "platform     : %s (axi4mlir-platform-v1, %s)\n" path
        (Platform_ir.to_string w.Platform_search.pt_platform)));
  `Ok ()

let run_tool workload_spec space_name strategy_name seed budget preset cache_path
    report_path trace_path list_space assert_warm remarks metrics_out doctor
    critical_path seed_from_bottleneck platform_search area_budget platform_out
    requests rps =
  Tool_common.with_observability ~remarks ~metrics:metrics_out @@ fun () ->
  let fail_on_error = function Ok v -> v | Error msg -> failwith msg in
  let budget = Option.map (Tool_common.positive ~flag:"budget") budget in
  (* checked with or without --platform-search, the only mode that reads them *)
  let requests = Tool_common.positive ~flag:"requests" requests in
  if not (Float.is_finite rps && rps > 0.0) then
    failwith (Printf.sprintf "--rps must be finite and positive (got %g)" rps);
  if platform_search then
    run_platform_search ~workload_spec ~space_name ~strategy_name ~seed ~budget
      ~area_budget ~platform_out ~requests ~rps
  else begin
  let space = fail_on_error (space_of_name space_name) in
  let space =
    match preset with
    | None -> space
    | Some name ->
      Tune_space.restrict_to_preset space (fail_on_error (Presets.find_by_name name))
  in
  let workloads =
    match workload_spec with
    | Some spec -> fail_on_error (Tune_workload.of_spec spec)
    | None ->
      if list_space then fail_on_error (Tune_workload.of_spec "matmul:64,64,64")
      else failwith "--workload is required (or --list-space)"
  in
  if list_space then begin
    List.iter
      (fun (named : Tune_workload.named) ->
        Tool_common.print_listing
          ~title:
            (Printf.sprintf "Search dimensions for %s (%s space):"
               (Tune_workload.to_string named.Tune_workload.wl_workload)
               space_name)
          (List.map
             (fun (dim, values) -> (dim, String.concat " | " values))
             (Tune_space.dimensions space named.Tune_workload.wl_workload)))
      workloads;
    `Ok ()
  end
  else begin
    let strategy = fail_on_error (Tune_strategy.of_string ~seed ?budget strategy_name) in
    let cache =
      match cache_path with
      | None -> None
      | Some path -> Some (fail_on_error (Tune_cache.load path))
    in
    let tracer =
      match trace_path with
      | None -> None
      | Some _ ->
        let t = Trace.create () in
        Trace.enable t;
        Some t
    in
    let report =
      Tuner.tune
        { Tuner.default_options with strategy; space; cache; tracer; seed_from_bottleneck }
        workloads
    in
    print_string (Tune_report.render report);
    (* The winner diagnosis pays one uncached re-evaluation per
       workload — the tuner only keeps cycles, not timelines. The
       critpath artifact goes to the first diagnosed winner. *)
    if doctor || critical_path <> None then begin
      let artifact = ref critical_path in
      List.iter
        (fun (r : Tune_report.result) ->
          match r.Tune_report.r_best with
          | None -> ()
          | Some b -> (
            let winner = b.Tune_report.bs_candidate in
            match Tune_eval.diagnose r.Tune_report.r_workload winner with
            | Error msg ->
              failwith
                (Printf.sprintf "perf doctor (%s): %s" r.Tune_report.r_label msg)
            | Ok dg ->
              Doctor.emit_remarks ~loc:r.Tune_report.r_label dg;
              Doctor.emit_metrics dg;
              (match !artifact with
              | Some path ->
                artifact := None;
                Doctor.write_json dg ~path;
                Printf.eprintf "critical path: %s (axi4mlir-critpath-v1)\n" path
              | None -> ());
              if doctor then begin
                Printf.printf "\nperf doctor — %s, winner %s\n" r.Tune_report.r_label
                  (Tune_space.candidate_to_string winner);
                let text = Doctor.render dg in
                if String.trim text = "" then failwith "perf doctor: empty diagnosis";
                print_string text
              end))
        report.Tune_report.rp_results
    end;
    (match (cache, cache_path) with
    | Some c, Some path ->
      Tune_cache.save c path;
      Printf.eprintf "tune cache   : %s (%d entries)\n" path (Tune_cache.size c)
    | _ -> ());
    (match report_path with
    | None -> ()
    | Some path ->
      Tune_report.write_file path report;
      Printf.eprintf "tune report  : %s\n" path);
    (match (tracer, trace_path) with
    | Some t, Some path ->
      Chrome_trace.write_file path (Trace.events t);
      Printf.eprintf "chrome trace : %s\n" path
    | _ -> ());
    let evaluations =
      List.fold_left
        (fun acc r -> acc + r.Tune_report.r_evaluated)
        0 report.Tune_report.rp_results
    in
    if assert_warm && evaluations > 0 then
      `Error
        ( false,
          Printf.sprintf
            "--assert-warm: %d pipeline evaluation(s) ran (cache was not warm)"
            evaluations )
    else `Ok ()
  end
  end

let workload =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"SPEC"
         ~doc:"What to tune: $(b,matmul:M,N,K), $(b,conv:IC,IHW,OC,FHW[,STRIDE]), \
               $(b,resnet18) (all layers, row-sampled), $(b,resnet18/LAYER) or \
               $(b,tinybert).")

let space =
  Arg.(value & opt string "default" & info [ "space" ] ~docv:"NAME"
         ~doc:"Search space: $(b,default) (all Table I engines, tile search, \
               double buffering), $(b,fig13) (the paper's hand-picked sweep \
               space) or $(b,quick).")

let strategy =
  Arg.(value & opt string "grid" & info [ "strategy" ] ~docv:"NAME"
         ~doc:"Search strategy: $(b,grid) (exhaustive) or $(b,greedy) \
               (cost-model-seeded hill climb, a quarter of the budget).")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
         ~doc:"Deterministic seed for the greedy strategy's tie-breaking.")

let budget =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"Evaluation budget for the greedy strategy (default: a quarter \
               of the pruned space).")

let preset =
  Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME"
         ~doc:"Restrict the engine dimension to one preset (e.g. v4_16); \
               the tuner then only explores flows, tiles and transfer options.")

let cache =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
         ~doc:"Persistent result cache (axi4mlir-tune-v1 JSON). Loaded before \
               tuning, saved after; a warm cache re-runs zero simulations.")

let report =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
         ~doc:"Write the tuning report as JSON to $(docv).")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace of tuning progress (one event per \
               candidate evaluation on the autotuner track) to $(docv).")

let list_space =
  Arg.(value & flag & info [ "list-space" ]
         ~doc:"Print the search dimensions the space explores for the \
               workload (default: a 64x64x64 matmul) and exit.")

let assert_warm =
  Arg.(value & flag & info [ "assert-warm" ]
         ~doc:"Exit non-zero if any pipeline evaluation ran (i.e. the cache \
               did not already hold every result). Used by the @tune-quick \
               determinism check.")

let seed_from_bottleneck =
  Arg.(value & flag & info [ "seed-from-bottleneck" ]
         ~doc:"Measure the heuristic baseline first and let the perf \
               doctor's binding-resource diagnosis of that run bias the \
               greedy strategy's predicted ranking (DMA-bound: try double \
               buffering earlier; host-bound: try the largest engines \
               earlier). No effect on warm-cache runs.")

let platform_search_flag =
  Arg.(value & flag & info [ "platform-search" ]
         ~doc:"Search the $(i,platform) space instead of host-code knobs: which \
               Table I engines the instance slots carry, how many DMA channels, \
               how wide the AXI beat — every candidate scored by a serving run \
               over a fixed request stream ($(b,--workload), $(b,--requests), \
               $(b,--rps), $(b,--seed)) and reported as a Pareto front of \
               throughput-per-resource vs p99. $(b,--space) selects \
               $(b,default) or $(b,quick); $(b,--strategy)/$(b,--budget) pick \
               the search strategy.")

let area_budget =
  Arg.(value & opt (some float) None & info [ "area-budget" ] ~docv:"UNITS"
         ~doc:"Resource budget for $(b,--platform-search) in abstract FPGA \
               units (see the resource model in DESIGN.md); candidates costing \
               more are pruned statically, before any serving run. Must be \
               positive.")

let platform_out =
  Arg.(value & opt (some string) None & info [ "platform-out" ] ~docv:"FILE"
         ~doc:"Write the winning platform description (the highest \
               throughput-per-resource Pareto point that ties-or-beats the \
               homogeneous baseline's p99) as axi4mlir-platform-v1 JSON. Fails \
               if nothing qualified.")

let requests =
  Arg.(value & opt int 24 & info [ "requests" ] ~docv:"N"
         ~doc:"Request-stream length for $(b,--platform-search) candidates.")

let rps =
  Arg.(value & opt float 1000.0 & info [ "rps" ] ~docv:"RATE"
         ~doc:"Offered load of the $(b,--platform-search) request stream \
               (requests per second of simulated time).")

let cmd =
  let doc = "design-space exploration over AXI4MLIR accelerator configurations" in
  Cmd.v
    (Cmd.info "axi4mlir-tune" ~doc)
    Term.(
      ret
        (const run_tool $ workload $ space $ strategy $ seed $ budget $ preset $ cache
       $ report $ trace $ list_space $ assert_warm $ Tool_common.remarks_flag
       $ Tool_common.metrics_out $ Tool_common.doctor_flag
       $ Tool_common.critical_path_out $ seed_from_bottleneck $ platform_search_flag
       $ area_budget $ platform_out $ requests $ rps))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
