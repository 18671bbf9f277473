(* The serving simulator: request-stream determinism, policy
   semantics, the QCheck scheduler invariants (work conservation, FIFO
   order, determinism, conservation of requests), the differential
   latency-accounting checks against the real pipeline, the golden
   axi4mlir-serve-v1 artifact and the Perfetto export. *)

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Synthetic oracle: the scheduler tests must not pay for (or depend
   on) real pipeline measurements, so they drive the event loop with a
   fixed service-time table. Batching is sublinear, as on the real
   engines (amortised bring-up, stationary-operand reuse). *)

let synth_service model ~batch =
  let base =
    match model with "small" -> 50.0 | "medium" -> 180.0 | _ -> 400.0
  in
  base *. (0.25 +. (0.75 *. float_of_int batch))

let synth_predict model = synth_service model ~batch:1
let synth_models = [ "small"; "medium"; "large" ]

let run_synth params requests =
  ok (Serve_sim.run ~service:synth_service ~predict:synth_predict params requests)

let stream ?(seed = 7) ?(count = 12) ?(mean_gap = 100.0) ?(models = synth_models) ()
    =
  {
    Serve_request.st_seed = seed;
    st_count = count;
    st_mean_gap = mean_gap;
    st_models = models;
  }

let params ?(accels = 2) ?(policy = Serve_policy.Fifo) ?queue_cap ?(batch_max = 4) ()
    =
  {
    Serve_sim.sp_accels = accels;
    sp_policy = policy;
    sp_queue_cap = queue_cap;
    sp_batch_max = batch_max;
  }

(* a hand-placed request, for tests that need exact arrivals *)
let rq id arrival model =
  { Serve_request.rq_id = id; rq_arrival = arrival; rq_model = model }

(* ------------------------------------------------------------------ *)
(* Request streams                                                     *)
(* ------------------------------------------------------------------ *)

let test_stream_deterministic () =
  let s = stream ~count:50 () in
  let a = ok (Serve_request.generate s) in
  let b = ok (Serve_request.generate s) in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  List.iteri
    (fun i (r : Serve_request.t) ->
      Alcotest.(check int) "ids are positions" i r.Serve_request.rq_id;
      Alcotest.(check bool) "model from the list" true
        (List.mem r.rq_model synth_models))
    a;
  let rec sorted = function
    | (x : Serve_request.t) :: (y : Serve_request.t) :: rest ->
      x.Serve_request.rq_arrival <= y.Serve_request.rq_arrival && sorted (y :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true (sorted a);
  Alcotest.(check bool) "arrivals non-negative" true
    (List.for_all (fun (r : Serve_request.t) -> r.Serve_request.rq_arrival >= 0.0) a)

let test_stream_seed_sensitivity () =
  let a = ok (Serve_request.generate (stream ~seed:1 ~count:20 ())) in
  let b = ok (Serve_request.generate (stream ~seed:2 ~count:20 ())) in
  Alcotest.(check bool) "different seeds, different arrivals" true (a <> b)

let test_percentile () =
  (* the serve report's latency percentiles are nearest-rank
     (Timeseries.percentile), zero on an empty run *)
  let p99 xs = (Serve_report.dist_of xs).Serve_report.d_p99 in
  let xs = Serve_report.dist_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 xs.Serve_report.d_p50;
  Alcotest.(check (float 0.0)) "p95 of 1..100" 95.0 xs.d_p95;
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 xs.d_p99;
  Alcotest.(check (float 0.0)) "p99 of a singleton" 42.0 (p99 [ 42.0 ]);
  Alcotest.(check (float 0.0)) "empty list" 0.0 (p99 []);
  (* small n: p99's nearest rank is the maximum *)
  Alcotest.(check (float 0.0)) "p99 of 10 samples is the max" 10.0
    (p99 (List.init 10 (fun i -> float_of_int (i + 1))))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_policy_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Serve_policy.to_string p ^ " round-trips")
        true
        (Serve_policy.of_string (Serve_policy.to_string p) = Ok p))
    Serve_policy.all;
  match Serve_policy.of_string "warp" with
  | Ok _ -> Alcotest.fail "unknown policy accepted"
  | Error msg ->
    Alcotest.(check bool) "error lists the valid policies" true
      (contains msg "fifo" && contains msg "sjf" && contains msg "batch")

(* ------------------------------------------------------------------ *)
(* Policy semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_sjf_reorders_queue () =
  (* one accelerator; a large job arrives first and two small ones pile
     up behind it while it runs *)
  let requests =
    [ rq 0 1.0 "large"; rq 1 2.0 "small"; rq 2 3.0 "small" ]
  in
  let fifo =
    run_synth (params ~accels:1 ~policy:Serve_policy.Fifo ()) requests
  in
  let sjf = run_synth (params ~accels:1 ~policy:Serve_policy.Sjf ()) requests in
  let finish o id =
    let r =
      List.find
        (fun (r : Serve_sim.request_stat) -> r.Serve_sim.rs_id = id)
        o.Serve_sim.oc_completed
    in
    r.Serve_sim.rs_finish
  in
  (* both serve the large head first (it is alone in the queue), but
     SJF keeps serving small jobs in predicted order afterwards — the
     schedules coincide here; the reorder shows with a second long job *)
  let requests2 = requests @ [ rq 3 4.0 "large" ] in
  let fifo2 =
    run_synth (params ~accels:1 ~policy:Serve_policy.Fifo ()) requests2
  in
  let sjf2 = run_synth (params ~accels:1 ~policy:Serve_policy.Sjf ()) requests2 in
  Alcotest.(check bool) "fifo serves in arrival order" true
    (finish fifo 1 < finish fifo 2);
  Alcotest.(check bool) "sjf keeps equal-cost jobs in arrival order" true
    (finish sjf 1 < finish sjf 2);
  Alcotest.(check bool) "sjf finishes the small jobs before the second large" true
    (finish sjf2 1 < finish sjf2 3 && finish sjf2 2 < finish sjf2 3);
  (* under FIFO the last small job waits for the queue ahead of it;
     under SJF it overtakes the queued large job *)
  Alcotest.(check bool) "sjf improves the small job's finish" true
    (finish sjf2 2 <= finish fifo2 2)

let test_batch_coalesces () =
  (* one accelerator busy with the first request; three same-model
     requests queue up behind it and must leave as one kernel *)
  let requests =
    [ rq 0 0.0 "medium"; rq 1 1.0 "small"; rq 2 2.0 "small"; rq 3 3.0 "small" ]
  in
  let o = run_synth (params ~accels:1 ~policy:Serve_policy.Batch ()) requests in
  let stat id =
    List.find
      (fun (r : Serve_sim.request_stat) -> r.Serve_sim.rs_id = id)
      o.Serve_sim.oc_completed
  in
  Alcotest.(check int) "two kernels total" 2 o.Serve_sim.oc_dispatches;
  let s1 = stat 1 and s2 = stat 2 and s3 = stat 3 in
  Alcotest.(check int) "batch of three" 3 s1.Serve_sim.rs_batch;
  Alcotest.(check bool) "batch members share the dispatch" true
    (s1.Serve_sim.rs_start = s2.Serve_sim.rs_start
    && s2.Serve_sim.rs_start = s3.Serve_sim.rs_start
    && s1.Serve_sim.rs_finish = s3.Serve_sim.rs_finish);
  let dur = s1.Serve_sim.rs_finish -. s1.Serve_sim.rs_start in
  Alcotest.(check (float 1e-9)) "batched service time" (synth_service "small" ~batch:3)
    dur;
  Alcotest.(check bool) "batching is cheaper than three singles" true
    (dur < 3.0 *. synth_service "small" ~batch:1)

let test_queue_cap_rejects () =
  (* burst of 6 into a capacity-2 system with one slow accelerator *)
  let requests = List.init 6 (fun i -> rq i (float_of_int i) "large") in
  let o =
    run_synth (params ~accels:1 ~policy:Serve_policy.Fifo ~queue_cap:2 ()) requests
  in
  Alcotest.(check bool) "overload rejects" true (o.Serve_sim.oc_rejected <> []);
  Alcotest.(check int) "conservation under rejection" 6
    (List.length o.Serve_sim.oc_completed + List.length o.Serve_sim.oc_rejected);
  (* the earliest arrivals were admitted; rejections hit later ones *)
  let min_rejected =
    List.fold_left
      (fun acc (r : Serve_sim.rejection) -> min acc r.Serve_sim.rj_id)
      max_int o.Serve_sim.oc_rejected
  in
  Alcotest.(check bool) "first two admitted" true (min_rejected >= 2)

let test_zero_completion_report () =
  (* an empty run: no completions, makespan 0 — summarize must not
     raise and the undefined rates must render "n/a", not 0 or nan *)
  let o = run_synth (params ~accels:2 ()) [] in
  Alcotest.(check int) "nothing completed" 0 (List.length o.Serve_sim.oc_completed);
  let s = Serve_report.summarize ~freq_mhz:100.0 Serve_policy.Fifo o in
  Alcotest.(check bool) "throughput undefined" true (s.Serve_report.sm_throughput_rps = None);
  Alcotest.(check bool) "utilization undefined" true (s.sm_utilization = None);
  Alcotest.(check (float 0.0)) "empty percentiles are 0" 0.0
    s.sm_latency.Serve_report.d_p99;
  let report =
    {
      Serve_report.rp_workloads = [ "small" ];
      rp_seed = 0;
      rp_rps = 1.0;
      rp_requests = 0;
      rp_accels = 2;
      rp_queue_cap = None;
      rp_batch_max = 1;
      rp_freq_mhz = 100.0;
      rp_platform = None;
      rp_summaries = [ s ];
    }
  in
  let rendered = Serve_report.render report in
  Alcotest.(check bool) "renders n/a for the undefined rates" true
    (contains rendered "n/a");
  (* the JSON artifact keeps the v1 field types: undefined -> 0 *)
  let policies = Json.(to_list (member "policies" (Serve_report.to_json report))) in
  Alcotest.(check (float 0.0)) "artifact throughput is 0" 0.0
    Json.(to_float (member "throughput_rps" (List.hd policies)));
  (* a heavily-rejecting run still summarizes from its survivors *)
  let burst = List.init 8 (fun i -> rq i 0.0 "large") in
  let o = run_synth (params ~accels:1 ~queue_cap:1 ()) burst in
  Alcotest.(check int) "cap 1 admits one" 1 (List.length o.Serve_sim.oc_completed);
  let s = Serve_report.summarize ~freq_mhz:100.0 Serve_policy.Fifo o in
  Alcotest.(check bool) "rates defined once anything completed" true
    (s.Serve_report.sm_throughput_rps <> None && s.sm_utilization <> None)

(* ------------------------------------------------------------------ *)
(* Telemetry reconciliation                                            *)
(* ------------------------------------------------------------------ *)

let test_telemetry_reconciles () =
  (* the tested invariant: windowed telemetry sums equal the end-of-run
     outcome totals exactly, and observing a run never changes it *)
  let requests = ok (Serve_request.generate (stream ~count:30 ~mean_gap:60.0 ())) in
  List.iter
    (fun policy ->
      let p = params ~accels:2 ~policy ~queue_cap:3 () in
      let telemetry = ok (Serve_telemetry.create ~window:500.0 ~accels:2) in
      let unobserved = run_synth p requests in
      let observed =
        ok
          (Serve_sim.run ~telemetry ~service:synth_service ~predict:synth_predict p
             requests)
      in
      Alcotest.(check bool)
        (Serve_policy.to_string policy ^ ": telemetry does not perturb the run")
        true (observed = unobserved);
      let total name = List.assoc name (Serve_telemetry.totals telemetry) in
      let n = List.length observed.Serve_sim.oc_completed in
      let r = List.length observed.Serve_sim.oc_rejected in
      Alcotest.(check (float 0.0)) "arrivals = offered" (float_of_int (n + r))
        (total Serve_telemetry.s_arrivals);
      Alcotest.(check (float 0.0)) "completions = completed" (float_of_int n)
        (total Serve_telemetry.s_completions);
      Alcotest.(check (float 0.0)) "rejections = rejected" (float_of_int r)
        (total Serve_telemetry.s_rejections);
      Alcotest.(check (float 0.0)) "kernels = dispatches"
        (float_of_int observed.Serve_sim.oc_dispatches)
        (total Serve_telemetry.s_kernels);
      (* per-accel busy cycles reconcile too (spread over windows) *)
      List.iter
        (fun (a : Serve_sim.accel_stat) ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "accel%d busy cycles" a.Serve_sim.ac_id)
            a.Serve_sim.ac_busy
            (Timeseries.total
               (Serve_telemetry.timeseries telemetry)
               (Serve_telemetry.busy_series a.Serve_sim.ac_id)))
        observed.Serve_sim.oc_accels)
    Serve_policy.all

(* ------------------------------------------------------------------ *)
(* QCheck scheduler invariants                                         *)
(* ------------------------------------------------------------------ *)

(* Derive a whole scheduling case from one integer, Fuzz_rng-style, so
   shrinking stays meaningful and every case is reproducible from its
   seed alone. *)
let case_of_seed ?policy seed =
  let rng = Fuzz_rng.derive ~seed ~index:0 in
  let count = Fuzz_rng.int_range rng 0 40 in
  let accels = Fuzz_rng.int_range rng 1 4 in
  let policy =
    match policy with Some p -> p | None -> Fuzz_rng.pick rng Serve_policy.all
  in
  let batch_max = Fuzz_rng.int_range rng 1 4 in
  let queue_cap =
    if Fuzz_rng.bool rng then Some (Fuzz_rng.int_range rng 1 8) else None
  in
  let mean_gap = float_of_int (Fuzz_rng.int_range rng 20 400) in
  let p =
    {
      Serve_sim.sp_accels = accels;
      sp_policy = policy;
      sp_queue_cap = queue_cap;
      sp_batch_max = batch_max;
    }
  in
  let requests =
    match
      Serve_request.generate
        {
          Serve_request.st_seed = seed;
          st_count = count;
          st_mean_gap = mean_gap;
          st_models = synth_models;
        }
    with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  (p, requests)

(* per-accel service intervals (deduped per dispatch), sorted *)
let service_intervals (o : Serve_sim.outcome) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Serve_sim.request_stat) ->
      let key = (r.Serve_sim.rs_accel, r.rs_start, r.rs_finish) in
      Hashtbl.replace tbl key ())
    o.Serve_sim.oc_completed;
  let by_accel = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (accel, s, f) () ->
      let prev = try Hashtbl.find by_accel accel with Not_found -> [] in
      Hashtbl.replace by_accel accel ((s, f) :: prev))
    tbl;
  Hashtbl.iter
    (fun accel ivs -> Hashtbl.replace by_accel accel (List.sort compare ivs))
    by_accel;
  by_accel

let eps = 1e-6

(* is [a, b) fully inside the union of the sorted intervals? *)
let covered intervals a b =
  if b <= a +. eps then true
  else begin
    let t = ref a in
    List.iter
      (fun (s, f) -> if s <= !t +. eps && f > !t then t := f)
      intervals;
    !t >= b -. eps
  end

let prop_conservation =
  QCheck.Test.make ~name:"conservation: offered = completed + rejected" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p, requests = case_of_seed seed in
      let o = run_synth p requests in
      let ids xs = List.sort compare xs in
      let completed_ids =
        List.map (fun (r : Serve_sim.request_stat) -> r.Serve_sim.rs_id)
          o.Serve_sim.oc_completed
      in
      let rejected_ids =
        List.map (fun (r : Serve_sim.rejection) -> r.Serve_sim.rj_id)
          o.Serve_sim.oc_rejected
      in
      let all = ids (completed_ids @ rejected_ids) in
      all = List.init (List.length requests) (fun i -> i))

let prop_accounting =
  QCheck.Test.make
    ~name:"accounting: per-accel busy <= makespan (so sum <= makespan * K)"
    ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p, requests = case_of_seed seed in
      let o = run_synth p requests in
      let sum =
        List.fold_left
          (fun acc (a : Serve_sim.accel_stat) -> acc +. a.Serve_sim.ac_busy)
          0.0 o.Serve_sim.oc_accels
      in
      List.for_all
        (fun (a : Serve_sim.accel_stat) ->
          a.Serve_sim.ac_busy <= o.Serve_sim.oc_makespan +. eps)
        o.Serve_sim.oc_accels
      && sum <= (o.Serve_sim.oc_makespan *. float_of_int p.Serve_sim.sp_accels) +. eps)

let prop_determinism =
  QCheck.Test.make ~name:"determinism: same seed+policy, identical outcome" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p, requests = case_of_seed seed in
      run_synth p requests = run_synth p requests)

let prop_work_conservation =
  QCheck.Test.make
    ~name:"work conservation: no accel idles through a request's wait" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p, requests = case_of_seed seed in
      let o = run_synth p requests in
      let by_accel = service_intervals o in
      List.for_all
        (fun (r : Serve_sim.request_stat) ->
          List.init p.Serve_sim.sp_accels (fun i -> i)
          |> List.for_all (fun accel ->
                 let ivs =
                   try Hashtbl.find by_accel accel with Not_found -> []
                 in
                 covered ivs r.Serve_sim.rs_arrival r.Serve_sim.rs_start))
        o.Serve_sim.oc_completed)

let prop_fifo_order =
  QCheck.Test.make
    ~name:"fifo: per-accel service follows arrival order (no starvation)" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p, requests = case_of_seed ~policy:Serve_policy.Fifo seed in
      let o = run_synth p requests in
      List.init p.Serve_sim.sp_accels (fun i -> i)
      |> List.for_all (fun accel ->
             let mine =
               List.filter
                 (fun (r : Serve_sim.request_stat) -> r.Serve_sim.rs_accel = accel)
                 o.Serve_sim.oc_completed
               |> List.sort (fun (a : Serve_sim.request_stat) b ->
                      compare
                        (a.Serve_sim.rs_start, a.Serve_sim.rs_id)
                        (b.Serve_sim.rs_start, b.Serve_sim.rs_id))
             in
             let rec increasing = function
               | (a : Serve_sim.request_stat) :: (b : Serve_sim.request_stat) :: rest
                 ->
                 a.Serve_sim.rs_id < b.Serve_sim.rs_id && increasing (b :: rest)
               | _ -> true
             in
             increasing mine))

(* ------------------------------------------------------------------ *)
(* Differential checks against the real pipeline                       *)
(* ------------------------------------------------------------------ *)

let real_oracle () =
  Serve_cost.create (ok (Serve_cost.models_of_specs [ "matmul:16,16,16" ]))

(* what the oracle should measure, spelled out independently of
   Tune_eval.prepare: the Best-heuristic compile+run of the single
   kernel, exactly as the bench experiments do it *)
let direct_matmul_cycles ~m ~n ~k =
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  let bench = Axi4mlir.create accel in
  let options = Heuristics.best_options accel ~m ~n ~k in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  counters.Perf_counters.cycles

let test_single_request_matches_pipeline () =
  (* single-accel FIFO serving of one request must be cycle-identical
     to the single-kernel pipeline run *)
  let oracle = real_oracle () in
  let requests = [ rq 0 10.0 "matmul:16,16,16" ] in
  let o =
    ok
      (Serve_sim.run
         ~service:(Serve_cost.service oracle)
         ~predict:(Serve_cost.predict oracle)
         (params ~accels:1 ~policy:Serve_policy.Fifo ())
         requests)
  in
  let r = List.hd o.Serve_sim.oc_completed in
  let direct = direct_matmul_cycles ~m:16 ~n:16 ~k:16 in
  Alcotest.(check (float 0.0)) "service cycles = pipeline cycles" direct
    (r.Serve_sim.rs_finish -. r.Serve_sim.rs_start);
  Alcotest.(check (float 0.0)) "no queueing for a lone request" r.Serve_sim.rs_arrival
    r.Serve_sim.rs_start;
  Alcotest.(check (float 0.0)) "makespan is the finish" r.Serve_sim.rs_finish
    o.Serve_sim.oc_makespan

let test_batched_kernel_amortises () =
  let oracle = real_oracle () in
  let s1 = Serve_cost.service oracle "matmul:16,16,16" ~batch:1 in
  let s2 = Serve_cost.service oracle "matmul:16,16,16" ~batch:2 in
  Alcotest.(check bool) "a batch of two costs more than one" true (s2 > s1);
  Alcotest.(check bool) "a batch of two costs less than two singles" true
    (s2 < 2.0 *. s1);
  (* memoisation: the same query is served from the table *)
  Alcotest.(check (float 0.0)) "memoised service is stable" s1
    (Serve_cost.service oracle "matmul:16,16,16" ~batch:1)

(* ------------------------------------------------------------------ *)
(* The axi4mlir-serve-v1 artifact                                      *)
(* ------------------------------------------------------------------ *)

let golden_specs = [ "matmul:16,16,16" ]

let golden_freq_mhz = Cost_model.default.Cost_model.cpu_freq_mhz

let golden_requests () =
  ok
    (Serve_request.generate
       {
         Serve_request.st_seed = 3;
         st_count = 6;
         st_mean_gap = golden_freq_mhz *. 1e6 /. 30000.0;
         st_models = golden_specs;
       })

let golden_report ?(policies = Serve_policy.all) () =
  (* must mirror bin/axi4mlir_serve.ml's construction for:
       --workload matmul:16,16,16 --requests 6 --accels 2 --rps 30000
       --policy all --seed 3 --batch-max 2 *)
  let oracle = Serve_cost.create (ok (Serve_cost.models_of_specs golden_specs)) in
  let reqs = golden_requests () in
  let summaries =
    List.map
      (fun policy ->
        let o =
          ok
            (Serve_sim.run
               ~service:(Serve_cost.service oracle)
               ~predict:(Serve_cost.predict oracle)
               (params ~accels:2 ~policy ~batch_max:2 ())
               reqs)
        in
        Serve_report.summarize ~freq_mhz:golden_freq_mhz policy o)
      policies
  in
  {
    Serve_report.rp_workloads = golden_specs;
    rp_seed = 3;
    rp_rps = 30000.0;
    rp_requests = 6;
    rp_accels = 2;
    rp_queue_cap = None;
    rp_batch_max = 2;
    rp_freq_mhz = golden_freq_mhz;
    rp_platform = None;
    rp_summaries = summaries;
  }

(* Regenerate (after an intentional cost-model or schema change) with:
     dune exec bin/axi4mlir_serve.exe -- --workload matmul:16,16,16 \
       --requests 6 --accels 2 --rps 30000 --policy all --seed 3 \
       --batch-max 2 --json test/golden/serve_matmul16.json *)
let read_golden path =
  let ic = open_in_bin (Filename.concat "golden" path) in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  golden

let test_golden_artifact () =
  let fresh =
    Json.to_string ~indent:1 (Serve_report.to_json (golden_report ())) ^ "\n"
  in
  Alcotest.(check string) "serve artifact matches the golden file"
    (read_golden "serve_matmul16.json") fresh

(* Regenerate with:
     dune exec bin/axi4mlir_serve.exe -- --workload matmul:16,16,16 \
       --requests 6 --accels 2 --rps 30000 --policy batch --seed 3 \
       --batch-max 2 --json test/golden/serve_batch16.json *)
let test_golden_batch_artifact () =
  let fresh =
    Json.to_string ~indent:1
      (Serve_report.to_json (golden_report ~policies:[ Serve_policy.Batch ] ()))
    ^ "\n"
  in
  Alcotest.(check string) "batch-policy artifact matches the golden file"
    (read_golden "serve_batch16.json") fresh

(* Regenerate with:
     dune exec bin/axi4mlir_serve.exe -- --workload matmul:16,16,16 \
       --requests 6 --accels 2 --rps 30000 --policy all --seed 3 \
       --batch-max 2 --window 200000 --slo 'p99<=500000' \
       --telemetry test/golden/serve_telemetry.json *)
let test_golden_telemetry_artifact () =
  let oracle = Serve_cost.create (ok (Serve_cost.models_of_specs golden_specs)) in
  let reqs = golden_requests () in
  let slo = ok (Slo.parse "p99<=500000") in
  let observed =
    List.map
      (fun policy ->
        let telemetry = ok (Serve_telemetry.create ~window:200000.0 ~accels:2) in
        let _ =
          ok
            (Serve_sim.run ~telemetry
               ~service:(Serve_cost.service oracle)
               ~predict:(Serve_cost.predict oracle)
               (params ~accels:2 ~policy ~batch_max:2 ())
               reqs)
        in
        ( Serve_policy.to_string policy,
          telemetry,
          Serve_telemetry.evaluate telemetry [ slo ] ))
      Serve_policy.all
  in
  let fresh = Json.to_string ~indent:1 (Serve_telemetry.to_json observed) ^ "\n" in
  Alcotest.(check string) "telemetry artifact matches the golden file"
    (read_golden "serve_telemetry.json") fresh;
  (* telemetry-v1 schema floor: add-only fields that must stay *)
  let doc = Serve_telemetry.to_json observed in
  Alcotest.(check string) "schema string" "axi4mlir-telemetry-v1"
    Json.(to_str (member "schema" doc));
  let first = List.hd Json.(to_list (member "policies" doc)) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (Json.member_opt field first <> None))
    [ "policy"; "window_cycles"; "accels"; "totals"; "timeseries"; "slos" ]

let test_artifact_schema () =
  (* the add-only compatibility floor: these fields must stay *)
  let doc = Serve_report.to_json (golden_report ()) in
  Alcotest.(check string) "schema string" "axi4mlir-serve-v1"
    Json.(to_str (member "schema" doc));
  Alcotest.(check int) "one summary per policy" 3
    (List.length Json.(to_list (member "policies" doc)));
  let first = List.hd Json.(to_list (member "policies" doc)) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (Json.member_opt field first <> None))
    [
      "policy";
      "requests";
      "completed";
      "rejected";
      "dispatches";
      "makespan_cycles";
      "throughput_rps";
      "utilization";
      "latency_cycles";
      "queue_cycles";
      "accels";
    ];
  (* platform is Null for a plain --accels run, so check key presence *)
  Alcotest.(check bool) "platform present (add-only)" true
    (match doc with Json.Obj kvs -> List.mem_assoc "platform" kvs | _ -> false);
  List.iter
    (fun field ->
      Alcotest.(check bool) ("latency " ^ field ^ " present") true
        (Json.member_opt field (Json.member "latency_cycles" first) <> None))
    [ "mean"; "p50"; "p95"; "p99"; "max" ];
  let first_accel = List.hd Json.(to_list (member "accels" first)) in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("accel " ^ field ^ " present") true
        (Json.member_opt field first_accel <> None))
    [ "id"; "busy_cycles"; "utilization"; "requests"; "dispatches"; "engine" ];
  (* and the rendering must re-parse *)
  let reparsed = Json.of_string (Json.to_string ~indent:1 doc) in
  Alcotest.(check string) "artifact re-parses" "axi4mlir-serve-v1"
    Json.(to_str (member "schema" reparsed))

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let test_trace_export () =
  let requests =
    [ rq 0 0.0 "medium"; rq 1 1.0 "small"; rq 2 2.0 "small"; rq 3 3.0 "small" ]
  in
  let o = run_synth (params ~accels:2 ~policy:Serve_policy.Batch ()) requests in
  let tracer = Trace.create () in
  Trace.enable tracer;
  Serve_report.annotate_trace tracer o;
  let events = Trace.events tracer in
  let on_track track =
    List.filter (fun (e : Trace.event) -> e.Trace.ev_track = track) events
  in
  Alcotest.(check int) "one lifetime span per completed request"
    (List.length o.Serve_sim.oc_completed)
    (List.length (on_track Trace.serve_request_track));
  let dispatch_events =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.ev_track = Trace.serve_accel_track 0
        || e.Trace.ev_track = Trace.serve_accel_track 1)
      events
  in
  Alcotest.(check int) "one slice per dispatch" o.Serve_sim.oc_dispatches
    (List.length dispatch_events);
  let names = Serve_report.track_names o in
  Alcotest.(check bool) "request track is named" true
    (List.mem_assoc Trace.serve_request_track names);
  Alcotest.(check bool) "accel tracks are named" true
    (List.mem_assoc (Trace.serve_accel_track 0) names
    && List.mem_assoc (Trace.serve_accel_track 1) names)

let tests =
  [
    Alcotest.test_case "stream: deterministic and ordered" `Quick
      test_stream_deterministic;
    Alcotest.test_case "stream: seed sensitivity" `Quick test_stream_seed_sensitivity;
    Alcotest.test_case "percentile: nearest rank" `Quick test_percentile;
    Alcotest.test_case "policy: names and errors" `Quick test_policy_names;
    Alcotest.test_case "sjf: reorders behind a long job" `Quick test_sjf_reorders_queue;
    Alcotest.test_case "batch: coalesces same-model requests" `Quick
      test_batch_coalesces;
    Alcotest.test_case "queue cap: rejects and conserves" `Quick test_queue_cap_rejects;
    Alcotest.test_case "report: zero completions render n/a" `Quick
      test_zero_completion_report;
    Alcotest.test_case "telemetry: reconciles with the report" `Quick
      test_telemetry_reconciles;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_accounting;
    QCheck_alcotest.to_alcotest prop_determinism;
    QCheck_alcotest.to_alcotest prop_work_conservation;
    QCheck_alcotest.to_alcotest prop_fifo_order;
    Alcotest.test_case "differential: single request = pipeline run" `Quick
      test_single_request_matches_pipeline;
    Alcotest.test_case "differential: batching amortises" `Quick
      test_batched_kernel_amortises;
    Alcotest.test_case "golden: serve artifact" `Quick test_golden_artifact;
    Alcotest.test_case "golden: batch-policy artifact" `Quick
      test_golden_batch_artifact;
    Alcotest.test_case "golden: telemetry artifact" `Quick
      test_golden_telemetry_artifact;
    Alcotest.test_case "serve-v1 schema floor" `Quick test_artifact_schema;
    Alcotest.test_case "trace: request + dispatch tracks" `Quick test_trace_export;
  ]
