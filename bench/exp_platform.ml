(* Platform search: co-design the SoC, not just the software.

   The tuner's other experiments hold the platform fixed and search
   host-code knobs; this one holds the per-kernel host code fixed (the
   Sec. IV-C Best heuristic, via the serving oracle) and searches the
   SoC itself — which Table I engines the instance slots carry, how
   many DMA channels the fabric ships, how wide the AXI beat is —
   under an area budget, scoring every candidate at the serving level
   (throughput + p99 over a fixed matmul request stream).

   Expectations this experiment gates on:
   - budget: every measured point on the Pareto front (and the picked
     winner) fits inside the area budget; the budget actually prunes
     (the homogeneous 2x v4_16 default itself is over it);
   - co-design wins: the searched platform strictly beats the
     homogeneous default on throughput per resource unit while
     tying-or-beating its p99 — the paper's "right-size the SoC"
     argument, measured end to end;
   - identity: serving a homogeneous platform description is
     bit-identical to the equivalent --accels K run — the platform
     transfer model is exactly the identity at one channel per
     instance and the 4-byte baseline beat, so platform files are a
     strict superset of the old interface, not a parallel code path.

   The quick space (2 engines x 2 slots x 2 channels x 2 beats) keeps
   CI interactive; the full run searches the 171-candidate default
   space. Simulation cost scales with distinct engines, not candidates:
   one oracle, its memo keyed by engine, serves every candidate. *)

let freq_mhz = Cost_model.default.Cost_model.cpu_freq_mhz

let run () =
  Report.header "Platform search: SoC co-design under an area budget";
  let quick = !Report.quick in
  let space =
    if quick then Platform_search.quick_space else Platform_search.default_space
  in
  let count = if quick then 12 else 24 in
  let seed = 1 in
  let rps = 1000.0 in
  let area_budget = 700.0 in
  let policy = Serve_policy.Fifo in
  let spec = "matmul:16,16,16" in
  let models =
    match Serve_cost.models_of_specs [ spec ] with
    | Ok m -> m
    | Error msg -> failwith msg
  in
  let stream =
    {
      Serve_request.st_seed = seed;
      st_count = count;
      st_mean_gap = freq_mhz *. 1e6 /. rps;
      st_models = [ spec ];
    }
  in
  let requests =
    match Serve_request.generate stream with Ok r -> r | Error msg -> failwith msg
  in
  Report.note "stream: %d requests of %s at %.0f req/s (seed %d), policy %s" count
    spec rps seed (Serve_policy.to_string policy);
  Report.note "budget: %.0f resource units (homogeneous 2x v4_16 default: %.1f)"
    area_budget
    (Platform_cost.resource_total_exn (Platform_ir.homogeneous ~accels:2 ()));
  let config_hash =
    Benchdiff.config_hash
      (Json.Obj
         [
           ("workload", Json.String spec);
           ("seed", Json.Int seed);
           ("requests", Json.Int count);
           ("rps", Json.Float rps);
           ("area_budget", Json.Float area_budget);
           ("space", Json.String (if quick then "quick" else "default"));
         ])
  in
  let measure = Platform_search.default_measure ~policy ~models ~requests () in
  let outcome =
    match Platform_search.search ~area_budget ~measure space with
    | Ok o -> o
    | Error msg -> failwith msg
  in
  print_string (Platform_search.render outcome);
  (* budget gate: the static prune must be live (the default platform
     is itself over this budget), and nothing measured escapes it *)
  if outcome.Platform_search.sr_over_budget < 1 then
    failwith "platform gate: the area budget pruned nothing (budget not binding)";
  List.iter
    (fun pt ->
      if pt.Platform_search.pt_resource > area_budget then
        failwith
          (Printf.sprintf "platform gate: front point %s is over budget (%.1f > %.1f)"
             pt.Platform_search.pt_platform.Platform_ir.pf_name
             pt.Platform_search.pt_resource area_budget))
    outcome.Platform_search.sr_front;
  let baseline =
    match outcome.Platform_search.sr_baseline with
    | Some b -> b
    | None -> failwith "platform gate: the homogeneous baseline did not measure"
  in
  let winner =
    match Platform_search.pick_winner outcome with
    | Some w -> w
    | None ->
      failwith
        "platform gate: no searched platform beats the homogeneous default on \
         throughput-per-resource while holding p99"
  in
  Report.note "winner  : %s — %.1f units, %.1f req/s, %.4f req/s/unit, p99 %.0f"
    (Platform_ir.to_string winner.Platform_search.pt_platform)
    winner.Platform_search.pt_resource winner.Platform_search.pt_throughput_rps
    winner.Platform_search.pt_per_resource winner.Platform_search.pt_p99_cycles;
  Report.note "baseline: %s — %.1f units, %.1f req/s, %.4f req/s/unit, p99 %.0f"
    (Platform_ir.to_string baseline.Platform_search.pt_platform)
    baseline.Platform_search.pt_resource baseline.Platform_search.pt_throughput_rps
    baseline.Platform_search.pt_per_resource baseline.Platform_search.pt_p99_cycles;
  (* co-design gate: strictly better per resource, no worse in the tail *)
  if winner.Platform_search.pt_resource > area_budget then
    failwith "platform gate: the winner is over the area budget";
  if
    not
      (winner.Platform_search.pt_per_resource
      > baseline.Platform_search.pt_per_resource)
  then
    failwith
      (Printf.sprintf
         "platform gate: winner per-resource %.4f does not strictly beat the \
          homogeneous default's %.4f"
         winner.Platform_search.pt_per_resource
         baseline.Platform_search.pt_per_resource);
  if winner.Platform_search.pt_p99_cycles > baseline.Platform_search.pt_p99_cycles
  then
    failwith
      (Printf.sprintf
         "platform gate: winner p99 %.0f is worse than the homogeneous default's %.0f"
         winner.Platform_search.pt_p99_cycles
         baseline.Platform_search.pt_p99_cycles);
  (* identity gate: a homogeneous platform file and --accels K are the
     same simulation, bit for bit *)
  let homogeneous = Platform_ir.homogeneous ~accels:2 () in
  let fleet = Platform_serve.create ~platform:homogeneous (Serve_cost.create models) in
  let via_platform =
    match Platform_serve.run ~policy fleet requests with
    | Ok o -> o
    | Error msg -> failwith msg
  in
  let oracle = Serve_cost.create models in
  let params =
    {
      Serve_sim.sp_accels = 2;
      sp_policy = policy;
      sp_queue_cap = None;
      sp_batch_max = 1;
    }
  in
  let via_accels =
    match
      Serve_sim.run
        ~service:(Serve_cost.service oracle)
        ~predict:(Serve_cost.predict oracle)
        params requests
    with
    | Ok o -> o
    | Error msg -> failwith msg
  in
  if via_platform <> via_accels then
    failwith
      "platform gate: a homogeneous platform run is not bit-identical to the \
       equivalent --accels 2 run";
  Report.note "identity: homogeneous platform run == --accels 2 run (bit-identical)";
  let record kind pt =
    Report.record_custom_point ~kind
      ~dims:[ count; List.length pt.Platform_search.pt_platform.Platform_ir.pf_instances ]
      ~config:config_hash
      [
        ("resource_units", pt.Platform_search.pt_resource);
        ("throughput_rps", pt.Platform_search.pt_throughput_rps);
        ("throughput_per_unit", pt.Platform_search.pt_per_resource);
        ("latency_p99_cycles", pt.Platform_search.pt_p99_cycles);
      ]
  in
  record "platform_winner" winner;
  record "platform_baseline" baseline;
  Report.record_custom_point ~kind:"platform_search" ~dims:[ count ]
    ~config:config_hash
    [
      ("candidates", float_of_int outcome.Platform_search.sr_space);
      ("over_budget", float_of_int outcome.Platform_search.sr_over_budget);
      ("measured", float_of_int outcome.Platform_search.sr_evaluated);
      ("front_size", float_of_int (List.length outcome.Platform_search.sr_front));
    ]
