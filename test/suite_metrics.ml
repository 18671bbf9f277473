(* Tests for the metrics registry, the optimization-remark collector
   and the benchmark regression gate (Benchdiff). *)

let contains report needle =
  let nl = String.length needle and rl = String.length report in
  let rec scan i = i + nl <= rl && (String.sub report i nl = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Registry basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_registry_basics () =
  let reg = Metrics.create () in
  Metrics.incr ~reg "c";
  Alcotest.(check int) "disabled registry records nothing" 0
    (List.length (Metrics.snapshot ~reg ()));
  Metrics.enable reg;
  Metrics.incr ~reg "c";
  Metrics.incr ~reg "c" ~by:2.0 ~labels:[ ("x", "1") ];
  Alcotest.(check (float 0.0)) "labelled series is separate" 2.0
    (Metrics.counter_value ~reg ~labels:[ ("x", "1") ] "c");
  Alcotest.(check (float 0.0)) "unlabelled series" 1.0 (Metrics.counter_value ~reg "c");
  Alcotest.(check (float 0.0)) "total sums label sets" 3.0 (Metrics.total ~reg "c");
  Metrics.set_gauge ~reg "g" 5.0;
  Metrics.set_gauge ~reg "g" 7.0;
  Alcotest.(check (float 0.0)) "gauge is last-write-wins" 7.0
    (Metrics.counter_value ~reg "g");
  (* recording one name as two kinds is an instrumentation bug *)
  Alcotest.(check bool) "kind mismatch raises" true
    (match Metrics.observe ~reg "c" 1.0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* ambient labels stamp every subsequent record *)
  Metrics.set_ambient reg [ ("experiment", "t") ];
  Metrics.incr ~reg "d";
  Alcotest.(check (float 0.0)) "ambient labels merged" 1.0
    (Metrics.counter_value ~reg ~labels:[ ("experiment", "t") ] "d");
  Metrics.reset reg;
  Alcotest.(check int) "reset drops series" 0 (List.length (Metrics.snapshot ~reg ()));
  Alcotest.(check bool) "reset keeps enabled" true (Metrics.enabled reg)

let test_registry_export () =
  let reg = Metrics.create () in
  Metrics.enable reg;
  Metrics.incr ~reg "runs" ~labels:[ ("flow", "Cs") ];
  Metrics.observe ~reg "len" 9.0;
  (match Metrics.to_json ~reg () with
  | Json.Obj fields ->
    Alcotest.(check string) "self-describing schema" "axi4mlir-metrics-v1"
      (match List.assoc "schema" fields with Json.String s -> s | _ -> "?")
  | _ -> Alcotest.fail "metrics JSON is not an object");
  let text = Metrics.render ~reg () in
  Alcotest.(check bool) "render names the counter" true (contains text "runs");
  Alcotest.(check bool) "render expands histogram count" true (contains text "len_count")

(* ------------------------------------------------------------------ *)
(* Histogram edge cases                                                *)
(* ------------------------------------------------------------------ *)

let histogram_view reg =
  match
    List.filter_map
      (fun s -> match s.Metrics.s_point with Metrics.Histogram_v v -> Some v | _ -> None)
      (Metrics.snapshot ~reg ())
  with
  | [ v ] -> v
  | vs -> Alcotest.failf "expected one histogram, got %d" (List.length vs)

let test_histogram_edges () =
  let empty =
    {
      Metrics.h_count = 0;
      h_sum = 0.0;
      h_min = None;
      h_max = None;
      h_buckets = [];
      h_overflow = 0;
    }
  in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "empty histogram has no q=%g" q)
        true
        (Metrics.quantile empty q = None))
    [ 0.0; 0.5; 1.0 ];
  let reg = Metrics.create () in
  Metrics.enable reg;
  (* a single observation is every quantile, exactly *)
  Metrics.observe ~reg "h" 42.0;
  let v = histogram_view reg in
  Alcotest.(check int) "one observation" 1 v.Metrics.h_count;
  Alcotest.(check (float 0.0)) "sum tracked exactly" 42.0 v.Metrics.h_sum;
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "single-observation q=%g" q)
        (Some 42.0) (Metrics.quantile v q))
    [ 0.0; 0.5; 1.0 ];
  (* observations beyond the last bucket land in the overflow bucket,
     and quantiles that land there report the exact max *)
  Metrics.observe ~reg "h" 1e30;
  let v = histogram_view reg in
  Alcotest.(check int) "overflow counted" 1 v.Metrics.h_overflow;
  Alcotest.(check int) "count includes overflow" 2 v.Metrics.h_count;
  Alcotest.(check (option (float 0.0))) "p100 is the overflow max" (Some 1e30)
    (Metrics.quantile v 1.0);
  Alcotest.(check (option (float 0.0))) "min survives overflow" (Some 42.0)
    v.Metrics.h_min

let test_histogram_bucket_lines () =
  let reg = Metrics.create () in
  Metrics.enable reg;
  (* buckets cover (2^(i-1), 2^i]: 3 and 4 land in le=4, 9 in le=16,
     100 in le=128 — the rendered lines must be cumulative *)
  List.iter
    (fun v -> Metrics.observe ~reg ~labels:[ ("k", "v") ] "lat" v)
    [ 3.0; 4.0; 9.0; 100.0 ];
  let text = Metrics.render ~reg () in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "render has %S" line) true
        (contains text line))
    [
      "lat_bucket{k=\"v\",le=\"4\"} 2";
      "lat_bucket{k=\"v\",le=\"16\"} 3";
      "lat_bucket{k=\"v\",le=\"128\"} 4";
      "lat_bucket{k=\"v\",le=\"+Inf\"} 4";
    ];
  Alcotest.(check bool) "unpopulated bounds are skipped" false
    (contains text "le=\"8\"");
  (* +Inf always equals _count, overflow included *)
  Metrics.observe ~reg ~labels:[ ("k", "v") ] "lat" 1e30;
  let text = Metrics.render ~reg () in
  Alcotest.(check bool) "+Inf includes the overflow bucket" true
    (contains text "lat_bucket{k=\"v\",le=\"+Inf\"} 5")

(* ------------------------------------------------------------------ *)
(* Remark emission from the transform passes                           *)
(* ------------------------------------------------------------------ *)

let test_remarks_applied_and_missed () =
  let host = Host_config.pynq_z2 in
  let m = Axi4mlir.build_matmul_module ~m:48 ~n:64 ~k:64 () in
  Remarks.enable ();
  (* a clean config: the Cs flow keeps the C tile stationary, so its
     transfer is hoisted out of the innermost loop *)
  let cs_accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Cs" () in
  let pass = Match_annotate.pass ~accel:cs_accel ~host () in
  ignore (pass.Pass.run m);
  Alcotest.(check bool) "applied remark emitted" true
    (Remarks.count Remarks.Applied >= 1);
  Alcotest.(check bool) "has a hoist-transfer remark" true
    (List.exists (fun r -> r.Remarks.r_name = "hoist-transfer") (Remarks.all ()));
  let rendered = Remarks.render_all () in
  Alcotest.(check bool) "renders as YAML docs" true (contains rendered "--- !Applied");
  (* a non-dividing tile override on the flexible engine: the pass
     rejects the op and the Missed remark names the offending tile and
     extent *)
  Remarks.clear ();
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  let options = { Codegen_options.default with tiles = Some [ 32; 16; 16 ] } in
  let pass = Match_annotate.pass ~accel ~host ~options () in
  let run_rejected () =
    match pass.Pass.run m with
    | exception Match_annotate.Rejected _ -> ()
    | _ -> Alcotest.fail "non-dividing tile override annotated"
  in
  run_rejected ();
  Alcotest.(check bool) "missed remark emitted" true (Remarks.count Remarks.Missed >= 1);
  let missed =
    List.find (fun r -> r.Remarks.r_kind = Remarks.Missed) (Remarks.all ())
  in
  Alcotest.(check string) "missed remark is not-offloaded" "not-offloaded"
    missed.Remarks.r_name;
  Alcotest.(check bool) "names the offending tile and extent" true
    (contains missed.Remarks.r_message "tile 32 does not divide extent 48");
  Remarks.disable ();
  Remarks.clear ();
  run_rejected ();
  Alcotest.(check int) "disabled collector records nothing" 0
    (List.length (Remarks.all ()))

(* ------------------------------------------------------------------ *)
(* The benchmark regression gate                                       *)
(* ------------------------------------------------------------------ *)

let point ?(metrics = []) id cycles =
  {
    Benchdiff.pt_id = id;
    pt_kind = "generated_matmul";
    pt_dims = [ 8; 8; 8 ];
    pt_config = "deadbeef";
    pt_metrics = (("cycles", cycles) :: metrics);
  }

let doc points = { Benchdiff.doc_experiment = "t"; doc_quick = true; doc_points = points }

let test_benchdiff_gate_fires () =
  let baseline = doc [ point "t/001" 1000.0 ~metrics:[ ("dma_words", 100.0) ] ] in
  Alcotest.(check bool) "identical docs pass" true
    (Benchdiff.ok (Benchdiff.compare_docs ~baseline ~fresh:baseline));
  (* 10% more cycles is far outside the 2% tolerance *)
  let v =
    Benchdiff.compare_docs ~baseline
      ~fresh:(doc [ point "t/001" 1100.0 ~metrics:[ ("dma_words", 100.0) ] ])
  in
  Alcotest.(check bool) "cycle regression fails the gate" false (Benchdiff.ok v);
  Alcotest.(check int) "exactly one regression" 1 (List.length v.Benchdiff.v_regressions);
  Alcotest.(check bool) "verdict renders it" true
    (contains (Benchdiff.render_verdict v) "REGRESSION t/001 cycles");
  (* fewer cycles is an improvement: reported, but not a failure *)
  let v =
    Benchdiff.compare_docs ~baseline
      ~fresh:(doc [ point "t/001" 900.0 ~metrics:[ ("dma_words", 100.0) ] ])
  in
  Alcotest.(check bool) "improvement passes" true (Benchdiff.ok v);
  Alcotest.(check int) "improvement reported" 1 (List.length v.Benchdiff.v_improvements);
  (* dma_words is direction-Exact: drift in the "good" direction fails too *)
  let v =
    Benchdiff.compare_docs ~baseline
      ~fresh:(doc [ point "t/001" 1000.0 ~metrics:[ ("dma_words", 99.0) ] ])
  in
  Alcotest.(check bool) "exact-metric drift fails" false (Benchdiff.ok v);
  (* a renamed point is missing + extra, both failures *)
  let v =
    Benchdiff.compare_docs ~baseline
      ~fresh:(doc [ point "t/002" 1000.0 ~metrics:[ ("dma_words", 100.0) ] ])
  in
  Alcotest.(check bool) "missing point fails" false (Benchdiff.ok v);
  Alcotest.(check (list string)) "missing id listed" [ "t/001" ] v.Benchdiff.v_missing;
  Alcotest.(check (list string)) "extra id listed" [ "t/002" ] v.Benchdiff.v_extra

let test_benchdiff_artifact_roundtrip () =
  let d =
    doc [ point "t/001" 1000.0 ~metrics:[ ("dma_words", 100.0); ("flops", 1024.0) ] ]
  in
  let path = Filename.temp_file "axi4mlir_bench" ".json" in
  Benchdiff.write_file path d;
  (match Benchdiff.read_file path with
  | Ok d' ->
    Alcotest.(check string) "experiment survives" d.Benchdiff.doc_experiment
      d'.Benchdiff.doc_experiment;
    Alcotest.(check bool) "quick flag survives" d.Benchdiff.doc_quick
      d'.Benchdiff.doc_quick;
    Alcotest.(check bool) "points survive verbatim"
      true (d.Benchdiff.doc_points = d'.Benchdiff.doc_points)
  | Error msg -> Alcotest.failf "read back failed: %s" msg);
  Sys.remove path;
  (* all failure modes are Error, never exceptions *)
  (match Benchdiff.read_file "/nonexistent/BENCH_x.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreadable file must be an Error");
  let bad = Filename.temp_file "axi4mlir_bench" ".json" in
  let oc = open_out bad in
  output_string oc "{\"schema\": \"wrong\"}";
  close_out oc;
  (match Benchdiff.read_file bad with
  | Error msg -> Alcotest.(check bool) "schema mismatch names schema" true
      (contains msg "schema")
  | Ok _ -> Alcotest.fail "wrong schema must be an Error");
  Sys.remove bad;
  Alcotest.(check string) "artifact naming" "BENCH_fig10.json" (Benchdiff.filename "fig10")

let test_derived_bench_metrics () =
  let c = Perf_counters.create () in
  c.Perf_counters.cycles <- 1000.0;
  c.Perf_counters.flops <- 500.0;
  c.Perf_counters.dma_words_sent <- 30.0;
  c.Perf_counters.dma_words_received <- 12.0;
  let metrics = Benchdiff.metrics_of_fields (Perf_counters.fields c) in
  Alcotest.(check (float 0.0)) "dma_words = sent + received" 42.0
    (List.assoc "dma_words" metrics);
  Alcotest.(check (float 0.0)) "gflops_per_cycle" 0.5
    (List.assoc "gflops_per_cycle" metrics);
  (* a zero-cycle run must not divide by zero *)
  let zero = Benchdiff.metrics_of_fields (Perf_counters.fields (Perf_counters.create ())) in
  Alcotest.(check (float 0.0)) "zero-cycle run yields 0, not nan" 0.0
    (List.assoc "gflops_per_cycle" zero)

let tests =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "registry export" `Quick test_registry_export;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edges;
    Alcotest.test_case "histogram bucket lines" `Quick test_histogram_bucket_lines;
    Alcotest.test_case "remarks: applied and missed" `Quick test_remarks_applied_and_missed;
    Alcotest.test_case "benchdiff gate fires" `Quick test_benchdiff_gate_fires;
    Alcotest.test_case "benchdiff artifact round-trip" `Quick
      test_benchdiff_artifact_roundtrip;
    Alcotest.test_case "derived bench metrics" `Quick test_derived_bench_metrics;
  ]
