(* axi4mlir-serve: inference-serving simulation over the deterministic
   timeline — request streams, multi-accelerator scheduling, tail
   latency per policy.

     dune exec bin/axi4mlir_serve.exe -- --workload tinybert --rps 50 --accels 2
     dune exec bin/axi4mlir_serve.exe -- --workload matmul:64,64,64 \
       --workload resnet18 --rps 200 --accels 4 --policy batch --trace serve.json
     dune exec bin/axi4mlir_serve.exe -- --workload tinybert --rps 100 \
       --queue-cap 8 --json serve-report.json
     dune exec bin/axi4mlir_serve.exe -- --workload tinybert --rps 200 \
       --dashboard --slo 'p99<=250000000' --slo 'availability>=99%' \
       --telemetry telemetry.json
*)

open Cmdliner

let run_tool workloads graph platform_file rps accels policy_name requests seed
    queue_cap batch_max rows seq window slo_specs dashboard telemetry_out assert_fired
    report_out json_out trace_out remarks metrics_out =
  Tool_common.with_observability ~remarks ~metrics:metrics_out @@ fun () ->
  let fail_on_error = function Ok v -> v | Error msg -> failwith msg in
  if workloads = [] then
    failwith
      "--workload is required (repeatable; e.g. --workload tinybert --workload \
       matmul:64,64,64)";
  let platform =
    match platform_file with
    | None -> None
    | Some path ->
      if graph then
        failwith
          "--platform cannot be combined with --graph (whole-model graph costs are \
           not engine-parameterised yet)";
      Some (fail_on_error (Platform_ir.load_file path))
  in
  let accels =
    match platform with Some p -> Platform_ir.n_instances p | None -> accels
  in
  if not (rps > 0.0) then
    failwith (Printf.sprintf "--rps must be positive (got %g)" rps);
  let requests = Tool_common.positive ~flag:"requests" requests
  and rows = Tool_common.positive ~flag:"rows" rows
  and seq = Tool_common.positive ~flag:"seq" seq in
  (match window with
  | Some w when not (w > 0.0) ->
    failwith (Printf.sprintf "--window must be a positive cycle count (got %g)" w)
  | _ -> ());
  let slos = List.map (fun s -> fail_on_error (Slo.parse s)) slo_specs in
  if assert_fired > 0 && slos = [] then
    failwith "--assert-fired needs at least one --slo to evaluate";
  let policies =
    match policy_name with
    | "all" -> Serve_policy.all
    | name -> [ fail_on_error (Serve_policy.of_string name) ]
  in
  fail_on_error
    (Serve_sim.validate
       {
         Serve_sim.sp_accels = accels;
         sp_policy = Serve_policy.Fifo;
         sp_queue_cap = queue_cap;
         sp_batch_max = batch_max;
       });
  let oracle =
    if graph then begin
      (* whole-model serving: each request costs a full Graph_exec
         forward pass under the residency plan, not a shape-class sum *)
      let graphs =
        List.map
          (fun spec ->
            match Graph_build.of_name spec with
            | Ok g -> (spec, g)
            | Error msg ->
              failwith
                (Printf.sprintf
                   "%s (with --graph every --workload must be a whole-model \
                    name)"
                   msg))
          workloads
      in
      Serve_cost.create ~graphs []
    end
    else
      Serve_cost.create (fail_on_error (Serve_cost.models_of_specs ~rows ~seq workloads))
  in
  (* without --platform the fleet is the homogeneous description of
     --accels K, whose transfer scale is exactly the identity *)
  let fleet =
    Platform_serve.create
      ~platform:
        (match platform with
        | Some p -> p
        | None -> Platform_ir.homogeneous ~accels ())
      oracle
  in
  let engines = Option.map (fun _ -> Platform_serve.engines fleet) platform in
  let freq_mhz = Cost_model.default.Cost_model.cpu_freq_mhz in
  let mean_gap = freq_mhz *. 1e6 /. rps in
  let stream =
    {
      Serve_request.st_seed = seed;
      st_count = requests;
      st_mean_gap = mean_gap;
      st_models = workloads;
    }
  in
  let reqs = fail_on_error (Serve_request.generate stream) in
  let outcomes =
    List.map
      (fun policy ->
        let outcome =
          fail_on_error (Platform_serve.run ?queue_cap ~batch_max ~policy fleet reqs)
        in
        (policy, outcome))
      policies
  in
  let report =
    {
      Serve_report.rp_workloads = workloads;
      rp_seed = seed;
      rp_rps = rps;
      rp_requests = requests;
      rp_accels = accels;
      rp_queue_cap = queue_cap;
      rp_batch_max = batch_max;
      rp_freq_mhz = freq_mhz;
      rp_platform = Option.map Platform_ir.to_string platform;
      rp_summaries =
        List.map
          (fun (policy, outcome) ->
            Serve_report.summarize ?engines ~freq_mhz policy outcome)
          outcomes;
    }
  in
  let rendered = Serve_report.render report in
  print_string rendered;
  (* Telemetry is a second, observed pass over the same streams: the
     scheduler is deterministic and the cost oracle memoised, so the
     re-run is cheap and its outcomes are bit-identical — which also
     lets --window default to a width derived from the measured
     makespan (about 20 windows across the first policy's run). *)
  let want_telemetry =
    dashboard || slos <> [] || telemetry_out <> None || window <> None
  in
  let observed =
    if not want_telemetry then []
    else begin
      let width =
        match window with
        | Some w -> w
        | None ->
          let _, first = List.hd outcomes in
          Float.max 1.0 (first.Serve_sim.oc_makespan /. 20.0)
      in
      List.map
        (fun (policy, _) ->
          let telemetry = fail_on_error (Serve_telemetry.create ~window:width ~accels) in
          ignore
            (fail_on_error
               (Platform_serve.run ~telemetry ?queue_cap ~batch_max ~policy fleet reqs));
          (policy, telemetry, Serve_telemetry.evaluate telemetry slos))
        outcomes
    end
  in
  List.iter
    (fun (policy, telemetry, evals) ->
      let name = Serve_policy.to_string policy in
      if dashboard then
        print_string (Serve_report.render_dashboard ~slos:evals ~policy telemetry)
      else List.iter (fun ev -> print_string (Slo.render ev)) evals;
      List.iter
        (fun ev ->
          Slo.emit_remarks ~loc:(Printf.sprintf "serve/%s" name) ev;
          Slo.emit_metrics ~labels:[ ("policy", name) ] ev)
        evals)
    observed;
  (match report_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc rendered;
    close_out oc;
    Printf.eprintf "serve report : %s\n" path);
  (match json_out with
  | None -> ()
  | Some path ->
    Serve_report.write_file path report;
    Printf.eprintf "serve json   : %s (axi4mlir-serve-v1)\n" path);
  (match telemetry_out with
  | None -> ()
  | Some path ->
    Serve_telemetry.write_file path
      (List.map
         (fun (policy, telemetry, evals) ->
           (Serve_policy.to_string policy, telemetry, evals))
         observed);
    Printf.eprintf "serve telem  : %s (axi4mlir-telemetry-v1)\n" path);
  (match trace_out with
  | None -> ()
  | Some path ->
    (* one standalone trace; with --policy all it shows the first
       policy's timeline (fifo), the baseline worth inspecting *)
    let policy, outcome = List.hd outcomes in
    let telemetry =
      match observed with (_, tel, _) :: _ -> Some tel | [] -> None
    in
    Serve_report.write_trace ?telemetry ~freq_mhz path outcome;
    Printf.eprintf "serve trace  : %s (%s policy)\n" path
      (Serve_policy.to_string policy));
  (if assert_fired > 0 then
     let fired =
       List.fold_left
         (fun acc (_, _, evals) ->
           List.fold_left (fun acc ev -> acc + ev.Slo.sv_fired) acc evals)
         0 observed
     in
     if fired < assert_fired then
       failwith
         (Printf.sprintf
            "--assert-fired %d: only %d burn-rate alert(s) fired across %d policy \
             runs"
            assert_fired fired (List.length observed)));
  `Ok ()

let workload =
  Arg.(
    value & opt_all string []
    & info [ "workload" ] ~docv:"SPEC"
        ~doc:
          "What each request invokes (repeatable; repeats weight the mix): \
           $(b,matmul:M,N,K), $(b,conv:IC,IHW,OC,FHW[,STRIDE]), $(b,resnet18) \
           (row-sampled conv proxies), $(b,resnet18/LAYER) or $(b,tinybert) \
           (padded MatMul shape classes).")

let graph =
  Arg.(
    value & flag
    & info [ "graph" ]
        ~doc:
          "Whole-model mode: every $(b,--workload) must be a graph model name \
           ($(b,resnet18) or $(b,tinybert)); each request is costed as a full \
           residency-planned forward pass through the model graph \
           (weight-stationary reuse and accel-to-accel chaining included) \
           instead of a per-shape-class layer sum.")

let platform_file =
  Arg.(
    value & opt (some string) None
    & info [ "platform" ] ~docv:"FILE"
        ~doc:
          "Serve on a platform description (axi4mlir-platform-v1 JSON, see \
           $(b,axi4mlir-config --platform-preset)): the instance list replaces \
           $(b,--accels), each slot is costed with its own engine, and the \
           description's DMA channel count and AXI beat width scale the transfer \
           share of every service time.")

let rps =
  Arg.(
    value & opt float 100.0
    & info [ "rps" ] ~docv:"RATE"
        ~doc:
          "Offered load in requests per second of simulated time (exponential \
           inter-arrival gaps with mean 1/$(docv)).")

let accels =
  Arg.(
    value & opt int 2
    & info [ "accels" ] ~docv:"K" ~doc:"Accelerator instances to dispatch across.")

let policy =
  Arg.(
    value & opt string "all"
    & info [ "policy" ] ~docv:"NAME"
        ~doc:
          "Scheduling policy: $(b,fifo), $(b,sjf), $(b,batch), or $(b,all) to run \
           every policy on the same stream.")

let requests =
  Arg.(
    value & opt int 32
    & info [ "requests" ] ~docv:"N" ~doc:"Stream length (number of requests).")

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Deterministic seed for arrival gaps and model choices.")

let queue_cap =
  Arg.(
    value & opt (some int) None
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Admission control: reject a request arriving while $(docv) admitted \
           requests are still in flight (default: unbounded).")

let batch_max =
  Arg.(
    value & opt int 4
    & info [ "batch-max" ] ~docv:"N"
        ~doc:"Max same-model requests coalesced per kernel under $(b,batch).")

let rows =
  Arg.(
    value & opt int 2
    & info [ "rows" ] ~docv:"N"
        ~doc:"ResNet-18 row-sampling depth (output rows simulated per layer).")

let seq =
  Arg.(
    value & opt int 128
    & info [ "seq" ] ~docv:"N" ~doc:"TinyBERT sequence length.")

let window =
  Arg.(
    value & opt (some float) None
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:
          "Telemetry window width in simulated cycles (must be positive). Default: \
           the first policy's makespan divided into 20 windows.")

let slo =
  Arg.(
    value & opt_all string []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Evaluate a service-level objective over the telemetry windows \
           (repeatable): $(b,pP<=LIMIT[@W]) with P in 50/90/95/99 and LIMIT in \
           cycles, or $(b,availability>=TARGET[@W]) with TARGET a percentage or \
           fraction. @W sets the burn-rate long window (default 4). Burn-rate \
           alert transitions are printed, logged as remarks and exported as \
           slo.* metrics.")

let dashboard =
  Arg.(
    value & flag
    & info [ "dashboard" ]
        ~doc:
          "Print the ASCII telemetry dashboard (per-window sparklines of \
           arrivals, completions, rejections, kernels, queue depth, in-flight \
           count, rolling p99 latency and per-accelerator busy fraction) for \
           each policy.")

let telemetry_out =
  Arg.(
    value & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Write the axi4mlir-telemetry-v1 JSON artifact to $(docv).")

let assert_fired =
  Arg.(
    value & opt int 0
    & info [ "assert-fired" ] ~docv:"N"
        ~doc:
          "Fail (exit 124) unless at least $(docv) burn-rate alerts fired across \
           all policies and --slo objectives — a CI hook for pinning alerting \
           behaviour.")

let report_out =
  Arg.(
    value & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write the rendered comparison table to $(docv) as well as stdout.")

let json_out =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the axi4mlir-serve-v1 JSON artifact to $(docv).")

let trace_out =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace (per-accelerator dispatch slices plus a \
           per-request lifetime track) to $(docv).")

let cmd =
  let doc = "inference-serving simulation over AXI4MLIR accelerators" in
  Cmd.v
    (Cmd.info "axi4mlir-serve" ~doc)
    Term.(
      ret
        (const run_tool $ workload $ graph $ platform_file $ rps $ accels $ policy
       $ requests $ seed
       $ queue_cap $ batch_max $ rows $ seq $ window $ slo $ dashboard
       $ telemetry_out $ assert_fired $ report_out $ json_out $ trace_out
       $ Tool_common.remarks_flag $ Tool_common.metrics_out))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
