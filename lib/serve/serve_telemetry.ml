(* Series names are part of the telemetry-v1 schema: renaming one is a
   breaking artifact change (see the .mli compatibility rule). *)
let s_arrivals = "arrivals"

let s_completions = "completions"

let s_rejections = "rejections"

let s_kernels = "kernels"

let s_queue = "queue_depth"

let s_in_flight = "in_flight"

let s_latency = "latency"

let busy_series accel = Printf.sprintf "accel%d_busy" accel

type t = { tl_ts : Timeseries.t; tl_accels : int }

let create ~window ~accels =
  if accels < 1 then Error (Printf.sprintf "telemetry needs accels >= 1 (got %d)" accels)
  else
    match Timeseries.create ~window with
    | Error e -> Error e
    | Ok ts -> Ok { tl_ts = ts; tl_accels = accels }

let window_width t = Timeseries.window_width t.tl_ts

let accels t = t.tl_accels

let timeseries t = t.tl_ts

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let on_arrival t ~at = Timeseries.record t.tl_ts ~agg:Sum ~series:s_arrivals ~t:at 1.0

let on_reject t ~at = Timeseries.record t.tl_ts ~agg:Sum ~series:s_rejections ~t:at 1.0

let on_complete t ~finish ~latency =
  Timeseries.record t.tl_ts ~agg:Sum ~series:s_completions ~t:finish 1.0;
  Timeseries.observe t.tl_ts ~series:s_latency ~t:finish latency

let on_dispatch t ~at ~accel ~start ~finish ~queue ~in_flight =
  Timeseries.record t.tl_ts ~agg:Sum ~series:s_kernels ~t:at 1.0;
  Timeseries.record t.tl_ts ~agg:Max ~series:s_queue ~t:at (float_of_int queue);
  Timeseries.record t.tl_ts ~agg:Max ~series:s_in_flight ~t:at (float_of_int in_flight);
  (* Spread the service interval over every window it overlaps, so a
     window's busy sum never exceeds its width. *)
  let width = Timeseries.window_width t.tl_ts in
  let series = busy_series accel in
  let start = Float.max 0.0 start in
  if finish > start then begin
    let w0 = int_of_float (start /. width) in
    let w1 = int_of_float (finish /. width) in
    for w = w0 to w1 do
      let lo = Float.max start (float_of_int w *. width) in
      let hi = Float.min finish (float_of_int (w + 1) *. width) in
      if hi > lo then
        Timeseries.record t.tl_ts ~agg:Sum ~series ~t:(float_of_int w *. width) (hi -. lo)
    done
  end

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let busy_fraction t accel =
  let width = Timeseries.window_width t.tl_ts in
  Array.map
    (fun v -> Option.map (fun cycles -> cycles /. width) v)
    (Timeseries.values t.tl_ts (busy_series accel))

let totals t =
  List.map
    (fun name -> (name, Timeseries.total t.tl_ts name))
    [ s_arrivals; s_completions; s_rejections; s_kernels ]

let slo_data t (spec : Slo.spec) =
  match spec.so_objective with
  | Slo.Latency { limit; _ } -> (
    Timeseries.dist_counts_above t.tl_ts s_latency ~limit
    |> Array.map (fun (total, above) -> { Slo.wd_total = total; wd_bad = above }))
  | Slo.Availability _ ->
    let offered = Timeseries.counts t.tl_ts s_arrivals in
    let rejected = Timeseries.counts t.tl_ts s_rejections in
    Array.init (Array.length offered) (fun i ->
        { Slo.wd_total = offered.(i); wd_bad = rejected.(i) })

let evaluate t specs = List.map (fun spec -> Slo.evaluate spec (slo_data t spec)) specs

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let annotate_trace t trace =
  let n = Timeseries.n_windows t.tl_ts in
  if n > 0 then begin
    let track = Trace.serve_telemetry_track in
    let sample name i = function
      | None -> ()
      | Some v ->
        Trace.counter trace ~cat:"telemetry" ~track
          ~ts:(Timeseries.window_start t.tl_ts i) name v
    in
    let scalar label series =
      Array.iteri (fun i v -> sample label i v) (Timeseries.values t.tl_ts series)
    in
    let count_curve label series =
      Array.iteri
        (fun i c -> if c > 0 then sample label i (Some (float_of_int c)))
        (Timeseries.counts t.tl_ts series)
    in
    count_curve "serve.arrivals" s_arrivals;
    count_curve "serve.completions" s_completions;
    count_curve "serve.rejections" s_rejections;
    scalar "serve.queue_depth" s_queue;
    scalar "serve.in_flight" s_in_flight;
    Array.iteri
      (fun i v -> sample "serve.p99_latency" i v)
      (Timeseries.dist_rolling_percentile t.tl_ts s_latency ~p:99 ~windows:4);
    for a = 0 to t.tl_accels - 1 do
      Array.iteri
        (fun i v -> sample (Printf.sprintf "serve.accel%d_busy" a) i v)
        (busy_fraction t a)
    done
  end

let policy_to_json (name, t, evals) =
  Json.Obj
    [
      ("policy", Json.String name);
      ("window_cycles", Json.Float (window_width t));
      ("accels", Json.Int t.tl_accels);
      ("totals", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (totals t)));
      ("timeseries", Timeseries.to_json t.tl_ts);
      ("slos", Json.List (List.map Slo.to_json evals));
    ]

let to_json policies =
  Json.Obj
    [
      ("schema", Json.String "axi4mlir-telemetry-v1");
      ("policies", Json.List (List.map policy_to_json policies));
    ]

let write_file path policies = Json.write_file ~indent:1 path (to_json policies)
