(* Latency accounting, the rendered comparison table, the
   axi4mlir-serve-v1 artifact and the Perfetto export. *)

type dist = {
  d_mean : float;
  d_p50 : float;
  d_p95 : float;
  d_p99 : float;
  d_max : float;
}

let dist_of xs =
  match xs with
  | [] -> { d_mean = 0.0; d_p50 = 0.0; d_p95 = 0.0; d_p99 = 0.0; d_max = 0.0 }
  | _ ->
    let percentile p xs = Option.value (Timeseries.percentile p xs) ~default:0.0 in
    {
      d_mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs);
      d_p50 = percentile 50 xs;
      d_p95 = percentile 95 xs;
      d_p99 = percentile 99 xs;
      d_max = List.fold_left Float.max neg_infinity xs;
    }

type accel_row = {
  ar_id : int;
  ar_engine : string;
  ar_busy : float;
  ar_util : float;
  ar_requests : int;
  ar_dispatches : int;
}

type summary = {
  sm_policy : Serve_policy.t;
  sm_requests : int;
  sm_completed : int;
  sm_rejected : int;
  sm_dispatches : int;
  sm_makespan : float;
  sm_throughput_rps : float option;
  sm_utilization : float option;
  sm_latency : dist;
  sm_queue : dist;
  sm_accels : accel_row list;
}

(* Engine preset names by accelerator index. Absent [engines] means
   the pre-platform homogeneous fleet: every slot is the default
   v4_16. A short [engines] list falls back the same way. *)
let default_engine = "v4_16"

let engine_at engines i =
  match engines with
  | None -> default_engine
  | Some names -> ( match List.nth_opt names i with Some e -> e | None -> default_engine)

let summarize ?engines ~freq_mhz policy (o : Serve_sim.outcome) =
  let completed = o.Serve_sim.oc_completed in
  let latencies =
    List.map
      (fun (r : Serve_sim.request_stat) -> r.Serve_sim.rs_finish -. r.rs_arrival)
      completed
  in
  let queues =
    List.map
      (fun (r : Serve_sim.request_stat) -> r.Serve_sim.rs_start -. r.rs_arrival)
      completed
  in
  let makespan = o.oc_makespan in
  let util busy = if makespan > 0.0 then busy /. makespan else 0.0 in
  let accels =
    List.map
      (fun (a : Serve_sim.accel_stat) ->
        {
          ar_id = a.Serve_sim.ac_id;
          ar_engine = engine_at engines a.Serve_sim.ac_id;
          ar_busy = a.ac_busy;
          ar_util = util a.ac_busy;
          ar_requests = a.ac_requests;
          ar_dispatches = a.ac_dispatches;
        })
      o.oc_accels
  in
  (* A run in which nothing completed has no makespan to divide by:
     rates and utilizations are undefined (rendered "n/a"), not 0. *)
  let mean_util =
    match accels with
    | _ when makespan <= 0.0 -> None
    | [] -> None
    | _ ->
      Some
        (List.fold_left (fun acc a -> acc +. a.ar_util) 0.0 accels
        /. float_of_int (List.length accels))
  in
  let throughput =
    if makespan > 0.0 then
      Some (float_of_int (List.length completed) /. (makespan /. (freq_mhz *. 1e6)))
    else None
  in
  {
    sm_policy = policy;
    sm_requests = List.length completed + List.length o.oc_rejected;
    sm_completed = List.length completed;
    sm_rejected = List.length o.oc_rejected;
    sm_dispatches = o.oc_dispatches;
    sm_makespan = makespan;
    sm_throughput_rps = throughput;
    sm_utilization = mean_util;
    sm_latency = dist_of latencies;
    sm_queue = dist_of queues;
    sm_accels = accels;
  }

type t = {
  rp_workloads : string list;
  rp_seed : int;
  rp_rps : float;
  rp_requests : int;
  rp_accels : int;
  rp_queue_cap : int option;
  rp_batch_max : int;
  rp_freq_mhz : float;
  rp_platform : string option;
  rp_summaries : summary list;
}

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render rp =
  let to_ms c = c /. (rp.rp_freq_mhz *. 1000.0) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "serving %d requests (%s) at %.1f req/s over %d accelerator(s), seed %d%s\n"
       rp.rp_requests
       (String.concat "+" rp.rp_workloads)
       rp.rp_rps rp.rp_accels rp.rp_seed
       (match rp.rp_queue_cap with
       | None -> ""
       | Some cap -> Printf.sprintf ", queue cap %d" cap));
  (match rp.rp_platform with
  | None -> ()
  | Some p -> Buffer.add_string buf (Printf.sprintf "platform: %s\n" p));
  let t =
    Tabulate.create
      [
        ("policy", Tabulate.Left);
        ("done", Tabulate.Right);
        ("rej", Tabulate.Right);
        ("kernels", Tabulate.Right);
        ("makespan", Tabulate.Right);
        ("req/s", Tabulate.Right);
        ("util", Tabulate.Right);
        ("p50 ms", Tabulate.Right);
        ("p95 ms", Tabulate.Right);
        ("p99 ms", Tabulate.Right);
      ]
  in
  List.iter
    (fun s ->
      Tabulate.add_row t
        [
          Serve_policy.to_string s.sm_policy;
          string_of_int s.sm_completed;
          string_of_int s.sm_rejected;
          string_of_int s.sm_dispatches;
          Tabulate.fmt_ms (to_ms s.sm_makespan);
          (match s.sm_throughput_rps with
          | None -> "n/a"
          | Some rps -> Printf.sprintf "%.1f" rps);
          (match s.sm_utilization with
          | None -> "n/a"
          | Some u -> Tabulate.fmt_pct u);
          Tabulate.fmt_ms (to_ms s.sm_latency.d_p50);
          Tabulate.fmt_ms (to_ms s.sm_latency.d_p95);
          Tabulate.fmt_ms (to_ms s.sm_latency.d_p99);
        ])
    rp.rp_summaries;
  let table = Tabulate.render t in
  Buffer.add_string buf table;
  if not (String.length table > 0 && table.[String.length table - 1] = '\n') then
    Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %-5s accel%d [%s]: %s busy, %d request(s) in %d kernel(s)\n"
               (Serve_policy.to_string s.sm_policy)
               a.ar_id a.ar_engine (Tabulate.fmt_pct a.ar_util) a.ar_requests
               a.ar_dispatches))
        s.sm_accels)
    rp.rp_summaries;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Telemetry dashboard                                                 *)
(* ------------------------------------------------------------------ *)

let spark_width = 64

let render_dashboard ?(slos = []) ~policy tel =
  let ts = Serve_telemetry.timeseries tel in
  let n = Timeseries.n_windows ts in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "-- %s telemetry: %d window(s) x %.0f cycles --\n"
       (Serve_policy.to_string policy) n
       (Serve_telemetry.window_width tel));
  if n = 0 then Buffer.add_string buf "  (nothing recorded)\n"
  else begin
    let row label curve stat =
      Buffer.add_string buf
        (Printf.sprintf "  %-12s |%s| %s\n" label
           (Timeseries.sparkline ~width:spark_width curve)
           stat)
    in
    let peak curve =
      Array.fold_left
        (fun m v -> match v with Some v when v > m -> v | _ -> m)
        0.0 curve
    in
    let last curve =
      Array.fold_left (fun acc v -> match v with Some _ -> v | None -> acc) None curve
    in
    let rate label series =
      let curve = Timeseries.values ts series in
      row label curve
        (Printf.sprintf "total %.0f, peak %.0f/window" (Timeseries.total ts series)
           (peak curve))
    in
    let level label series =
      let curve = Timeseries.values ts series in
      row label curve (Printf.sprintf "peak %.0f" (peak curve))
    in
    rate "arrivals" Serve_telemetry.s_arrivals;
    rate "completions" Serve_telemetry.s_completions;
    rate "rejections" Serve_telemetry.s_rejections;
    rate "kernels" Serve_telemetry.s_kernels;
    level "queue depth" Serve_telemetry.s_queue;
    level "in flight" Serve_telemetry.s_in_flight;
    let p99 =
      Timeseries.dist_rolling_percentile ts Serve_telemetry.s_latency ~p:99 ~windows:4
    in
    row "p99 latency" p99
      (match last p99 with
      | None -> "no samples"
      | Some v -> Printf.sprintf "last %.0f cycles (rolling x4)" v);
    let width = Serve_telemetry.window_width tel in
    for a = 0 to Serve_telemetry.accels tel - 1 do
      let curve = Serve_telemetry.busy_fraction tel a in
      let mean =
        Timeseries.total ts (Serve_telemetry.busy_series a)
        /. (width *. float_of_int n)
      in
      row (Printf.sprintf "accel%d busy" a) curve
        (Printf.sprintf "mean %.1f%%" (100.0 *. mean))
    done
  end;
  List.iter (fun ev -> Buffer.add_string buf (Slo.render ev)) slos;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The axi4mlir-serve-v1 artifact (add-only schema)                    *)
(* ------------------------------------------------------------------ *)

let dist_json d =
  Json.Obj
    [
      ("mean", Json.Float d.d_mean);
      ("p50", Json.Float d.d_p50);
      ("p95", Json.Float d.d_p95);
      ("p99", Json.Float d.d_p99);
      ("max", Json.Float d.d_max);
    ]

let summary_json s =
  Json.Obj
    [
      ("policy", Json.String (Serve_policy.to_string s.sm_policy));
      ("requests", Json.Int s.sm_requests);
      ("completed", Json.Int s.sm_completed);
      ("rejected", Json.Int s.sm_rejected);
      ("dispatches", Json.Int s.sm_dispatches);
      ("makespan_cycles", Json.Float s.sm_makespan);
      (* undefined rates serialize as 0, keeping the v1 field types —
         and existing golden bytes — unchanged *)
      ("throughput_rps", Json.Float (Option.value ~default:0.0 s.sm_throughput_rps));
      ("utilization", Json.Float (Option.value ~default:0.0 s.sm_utilization));
      ("latency_cycles", dist_json s.sm_latency);
      ("queue_cycles", dist_json s.sm_queue);
      ( "accels",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("id", Json.Int a.ar_id);
                   ("busy_cycles", Json.Float a.ar_busy);
                   ("utilization", Json.Float a.ar_util);
                   ("requests", Json.Int a.ar_requests);
                   ("dispatches", Json.Int a.ar_dispatches);
                   (* appended under the add-only rule *)
                   ("engine", Json.String a.ar_engine);
                 ])
             s.sm_accels) );
    ]

let to_json rp =
  Json.Obj
    [
      ("schema", Json.String "axi4mlir-serve-v1");
      ("workloads", Json.List (List.map (fun w -> Json.String w) rp.rp_workloads));
      ("seed", Json.Int rp.rp_seed);
      ("rps", Json.Float rp.rp_rps);
      ("requests", Json.Int rp.rp_requests);
      ("accels", Json.Int rp.rp_accels);
      ( "queue_cap",
        match rp.rp_queue_cap with None -> Json.Null | Some c -> Json.Int c );
      ("batch_max", Json.Int rp.rp_batch_max);
      ("cpu_freq_mhz", Json.Float rp.rp_freq_mhz);
      ("policies", Json.List (List.map summary_json rp.rp_summaries));
      (* appended under the add-only rule: the platform description's
         one-line summary, Null for a plain --accels run *)
      ( "platform",
        match rp.rp_platform with None -> Json.Null | Some p -> Json.String p );
    ]

let write_file path rp = Json.write_file ~indent:1 path (to_json rp)

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let annotate_trace tracer (o : Serve_sim.outcome) =
  (* one slice per dispatch: completed stats repeat the dispatch per
     batch member, so dedupe on (accel, start) *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (r : Serve_sim.request_stat) ->
      let key = (r.Serve_sim.rs_accel, r.rs_start) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Trace.complete tracer ~cat:"serve"
          ~track:(Trace.serve_accel_track r.rs_accel)
          ~args:[ ("model", Trace.Str r.rs_model); ("batch", Trace.Int r.rs_batch) ]
          ~ts:r.rs_start
          ~dur:(r.rs_finish -. r.rs_start)
          (Printf.sprintf "%s x%d" r.rs_model r.rs_batch)
      end)
    o.Serve_sim.oc_completed;
  List.iter
    (fun (r : Serve_sim.request_stat) ->
      Trace.complete tracer ~cat:"serve_request" ~track:Trace.serve_request_track
        ~args:
          [
            ("model", Trace.Str r.Serve_sim.rs_model);
            ("accel", Trace.Int r.rs_accel);
            ("batch", Trace.Int r.rs_batch);
            ("queue_cycles", Trace.Num (r.rs_start -. r.rs_arrival));
          ]
        ~ts:r.rs_arrival
        ~dur:(r.rs_finish -. r.rs_arrival)
        (Printf.sprintf "req%03d %s" r.rs_id r.rs_model))
    o.oc_completed

let track_names (o : Serve_sim.outcome) =
  (Trace.serve_request_track, "requests")
  :: List.map
       (fun (a : Serve_sim.accel_stat) ->
         (Trace.serve_accel_track a.Serve_sim.ac_id,
          Printf.sprintf "accel%d" a.ac_id))
       o.Serve_sim.oc_accels

let write_trace ?telemetry ~freq_mhz path (o : Serve_sim.outcome) =
  let tracer = Trace.create () in
  Trace.enable tracer;
  annotate_trace tracer o;
  let names = track_names o in
  let names =
    match telemetry with
    | None -> names
    | Some tel ->
      Serve_telemetry.annotate_trace tel tracer;
      names @ [ (Trace.serve_telemetry_track, "telemetry") ]
  in
  Chrome_trace.write_file ~cpu_freq_mhz:freq_mhz ~track_names:names path
    (Trace.events tracer)
