(* Unit tests for the observability stack under the serving simulator:
   the windowed time-series collector (window indexing, aggregation
   semantics, nearest-rank percentiles, sparklines), the SLO burn-rate
   evaluator (budget math, multi-window fire condition, hysteresis),
   and the Chrome-trace counter-track export. *)

let mk ?(window = 10.0) () =
  match Timeseries.create ~window with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let curve = Alcotest.(array (option (float 1e-9)))

let test_window_indexing () =
  let t = mk () in
  Timeseries.record t ~series:"a" ~t:0.0 1.0;
  Timeseries.record t ~series:"a" ~t:9.5 2.0;
  (* a boundary timestamp opens the next window: floor(10/10) = 1 *)
  Timeseries.record t ~series:"a" ~t:10.0 4.0;
  (* negative timestamps clamp into window 0 *)
  Timeseries.record t ~series:"a" ~t:(-3.0) 8.0;
  Timeseries.record t ~series:"a" ~t:35.0 16.0;
  Alcotest.(check int) "n_windows" 4 (Timeseries.n_windows t);
  Alcotest.(check (float 0.0)) "window 3 start" 30.0 (Timeseries.window_start t 3);
  Alcotest.check curve "per-window sums"
    [| Some 11.0; Some 4.0; None; Some 16.0 |]
    (Timeseries.values t "a");
  Alcotest.(check (array int)) "per-window counts" [| 3; 1; 0; 1 |] (Timeseries.counts t "a");
  Alcotest.(check (float 1e-9)) "reconciliation total" 31.0 (Timeseries.total t "a");
  Alcotest.(check (float 1e-9)) "unknown series total" 0.0 (Timeseries.total t "zzz")

let test_aggregations () =
  let t = mk () in
  List.iter
    (fun (tm, v) ->
      Timeseries.record t ~agg:Timeseries.Mean ~series:"mean" ~t:tm v;
      Timeseries.record t ~agg:Timeseries.Max ~series:"max" ~t:tm v)
    [ (1.0, 4.0); (2.0, 8.0); (3.0, 6.0) ];
  (* Last under out-of-order recording: the largest timestamp wins,
     ties broken towards the most recently recorded observation *)
  Timeseries.record t ~agg:Timeseries.Last ~series:"last" ~t:5.0 1.0;
  Timeseries.record t ~agg:Timeseries.Last ~series:"last" ~t:2.0 7.0;
  Timeseries.record t ~agg:Timeseries.Last ~series:"last" ~t:5.0 3.0;
  let first name = (Timeseries.values t name).(0) in
  Alcotest.(check (option (float 1e-9))) "mean" (Some 6.0) (first "mean");
  Alcotest.(check (option (float 1e-9))) "max" (Some 8.0) (first "max");
  Alcotest.(check (option (float 1e-9))) "last" (Some 3.0) (first "last");
  Alcotest.(check (list string)) "first-recorded order" [ "mean"; "max"; "last" ]
    (Timeseries.series_names t)

let test_shape_mismatch () =
  let t = mk () in
  Timeseries.record t ~series:"s" ~t:0.0 1.0;
  Timeseries.observe t ~series:"d" ~t:0.0 1.0;
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": shape mismatch accepted")
  in
  expect_invalid "observe on scalar" (fun () -> Timeseries.observe t ~series:"s" ~t:1.0 1.0);
  expect_invalid "record on dist" (fun () -> Timeseries.record t ~series:"d" ~t:1.0 1.0);
  expect_invalid "aggregation change" (fun () ->
      Timeseries.record t ~agg:Timeseries.Max ~series:"s" ~t:1.0 1.0);
  expect_invalid "values on dist" (fun () -> ignore (Timeseries.values t "d"));
  expect_invalid "dist_percentile on scalar" (fun () ->
      ignore (Timeseries.dist_percentile t "s" ~p:50))

let test_percentiles () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  List.iter
    (fun (name, p, samples, expected) ->
      Alcotest.(check (option (float 0.0))) name expected (Timeseries.percentile p samples))
    [
      ("empty list", 99, [], None);
      ("p50 of 5", 50, xs, Some 3.0);
      ("p99 of 5 = max", 99, xs, Some 5.0);
      ("p1 = min", 1, xs, Some 1.0);
      ("p50 of 1..100", 50, upto 100, Some 50.0);
      ("p95 of 1..100", 95, upto 100, Some 95.0);
      ("p99 of 1..100", 99, upto 100, Some 99.0);
      ("p99 of a singleton", 99, [ 42.0 ], Some 42.0);
      (* small n: p99's nearest rank is the maximum *)
      ("p99 of 10 samples is the max", 99, upto 10, Some 10.0);
    ];
  let t = mk () in
  (* the window-2 sample lands first: out-of-order wrt recording *)
  Timeseries.observe t ~series:"lat" ~t:25.0 100.0;
  List.iter (fun v -> Timeseries.observe t ~series:"lat" ~t:v v) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.check curve "per-window p50"
    [| Some 2.0; None; Some 100.0 |]
    (Timeseries.dist_percentile t "lat" ~p:50);
  Alcotest.check curve "rolling p99 pools trailing windows"
    [| Some 4.0; Some 4.0; Some 100.0 |]
    (Timeseries.dist_rolling_percentile t "lat" ~p:99 ~windows:3);
  Alcotest.(check (array (pair int int)))
    "counts above a strict limit"
    [| (4, 2); (0, 0); (1, 1) |]
    (Timeseries.dist_counts_above t "lat" ~limit:2.0)

let test_sparkline () =
  Alcotest.(check string) "empty curve" "" (Timeseries.sparkline [||]);
  Alcotest.(check string) "empty window, floor, peak" " .@"
    (Timeseries.sparkline [| None; Some 0.0; Some 10.0 |]);
  Alcotest.(check string) "all-zero curve stays on the floor" ".."
    (Timeseries.sparkline [| Some 0.0; Some 0.0 |]);
  (* resampling takes each output cell's maximum: a one-window burst
     survives a 4-to-2 downsample *)
  Alcotest.(check string) "burst survives resampling" "@."
    (Timeseries.sparkline ~width:2 [| Some 0.0; Some 9.0; Some 0.0; Some 0.0 |])

(* ------------------------------------------------------------------ *)
(* SLO burn-rate evaluation                                            *)
(* ------------------------------------------------------------------ *)

let wd total bad = { Slo.wd_total = total; wd_bad = bad }

let spec_of text =
  match Slo.parse text with Ok s -> s | Error msg -> Alcotest.fail msg

let test_burn_math () =
  let spec = spec_of "p99<=100@2" in
  Alcotest.(check (float 1e-9)) "latency budget" 0.01 (Slo.budget spec);
  Alcotest.(check (float 1e-9)) "availability budget" 0.01
    (Slo.budget (spec_of "availability>=99%"));
  (* 2 bad of 100 against a 1% budget burns at 2x *)
  let ev = Slo.evaluate spec [| wd 100 2 |] in
  (match ev.Slo.sv_windows with
  | [ w ] ->
    Alcotest.(check (float 1e-9)) "short burn" 2.0 w.Slo.we_burn;
    Alcotest.(check (float 1e-9)) "long burn" 2.0 w.Slo.we_long_burn
  | _ -> Alcotest.fail "one window expected");
  Alcotest.(check int) "fired" 1 ev.Slo.sv_fired;
  Alcotest.(check (float 1e-9)) "budget spent" 2.0 ev.Slo.sv_budget_spent;
  Alcotest.(check bool) "not met" false (Slo.met ev);
  (* an empty run burns nothing *)
  let idle = Slo.evaluate spec [| wd 0 0; wd 0 0 |] in
  Alcotest.(check (float 1e-9)) "idle budget spent" 0.0 idle.Slo.sv_budget_spent;
  Alcotest.(check bool) "idle met" true (Slo.met idle)

let test_fire_needs_short_and_long () =
  (* a hot short window alone must not fire while the event-weighted
     long burn is still below the threshold *)
  let spec = spec_of "p99<=100@2" in
  let ev = Slo.evaluate spec [| wd 100 0; wd 100 2 |] in
  Alcotest.(check int) "no alert" 0 ev.Slo.sv_fired;
  (match List.rev ev.Slo.sv_windows with
  | last :: _ ->
    Alcotest.(check (float 1e-9)) "short burn hot" 2.0 last.Slo.we_burn;
    Alcotest.(check (float 1e-9)) "long burn cool" 1.0 last.Slo.we_long_burn
  | [] -> Alcotest.fail "windows expected");
  Alcotest.(check bool) "met at exactly 100% budget" true (Slo.met ev)

let test_hysteresis () =
  (* fire at 2x, resolve below 1x: a long burn hovering between the two
     thresholds must keep the alert latched *)
  let spec = spec_of "p99<=100@2" in
  let ev = Slo.evaluate spec [| wd 100 4; wd 100 1; wd 100 0 |] in
  (match ev.Slo.sv_transitions with
  | [ t1; t2 ] ->
    Alcotest.(check int) "fires in window 0" 0 t1.Slo.tr_window;
    Alcotest.(check bool) "firing transition" true (t1.Slo.tr_state = Slo.Firing);
    Alcotest.(check int) "stays latched through window 1, resolves in 2" 2 t2.Slo.tr_window;
    Alcotest.(check bool) "resolved transition" true (t2.Slo.tr_state = Slo.Budget_ok)
  | ts -> Alcotest.fail (Printf.sprintf "expected 2 transitions, got %d" (List.length ts)));
  Alcotest.(check int) "fired once" 1 ev.Slo.sv_fired;
  Alcotest.(check bool) "final state ok" true (ev.Slo.sv_final = Slo.Budget_ok);
  (* the rendering names the transition windows *)
  let text = Slo.render ev in
  let contains hay needle =
    let nl = String.length needle in
    let rec go i = i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions FIRING" true (contains text "FIRING");
  Alcotest.(check bool) "render mentions resolution" true (contains text "resolved")

(* ------------------------------------------------------------------ *)
(* Counter tracks in the Chrome-trace export                           *)
(* ------------------------------------------------------------------ *)

let test_counter_event_json () =
  let tr = Trace.create () in
  Trace.enable tr;
  Trace.counter tr ~track:Trace.serve_telemetry_track ~ts:1000.0 "serve.queue_depth" 3.0;
  let events = Trace.events tr in
  Alcotest.(check int) "one event recorded" 1 (List.length events);
  let doc = Chrome_trace.to_json ~cpu_freq_mhz:100.0 events in
  let evs = Json.to_list (Json.member "traceEvents" doc) in
  let counter =
    List.find
      (fun e ->
        match Json.member_opt "ph" e with Some (Json.String "C") -> true | _ -> false)
      evs
  in
  Alcotest.(check string) "series name" "serve.queue_depth"
    (Json.to_str (Json.member "name" counter));
  Alcotest.(check int) "telemetry track" Trace.serve_telemetry_track
    (Json.to_int (Json.member "tid" counter));
  Alcotest.(check (float 1e-9)) "cycles scale to microseconds" 10.0
    (Json.to_float (Json.member "ts" counter));
  Alcotest.(check (float 1e-9)) "value rides in args" 3.0
    (Json.to_float (Json.member "value" (Json.member "args" counter)))

let tests =
  [
    Alcotest.test_case "timeseries: window indexing" `Quick test_window_indexing;
    Alcotest.test_case "timeseries: aggregation semantics" `Quick test_aggregations;
    Alcotest.test_case "timeseries: shape mismatches rejected" `Quick test_shape_mismatch;
    Alcotest.test_case "timeseries: nearest-rank percentiles" `Quick test_percentiles;
    Alcotest.test_case "timeseries: sparkline rendering" `Quick test_sparkline;
    Alcotest.test_case "slo: burn-rate math" `Quick test_burn_math;
    Alcotest.test_case "slo: fire needs short and long burn" `Quick
      test_fire_needs_short_and_long;
    Alcotest.test_case "slo: alert hysteresis" `Quick test_hysteresis;
    Alcotest.test_case "trace: telemetry counter events" `Quick test_counter_event_json;
  ]
