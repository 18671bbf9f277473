(* Tests for the observability subsystem: the tracer itself, the
   Perf_counters field/JSON reflection, the Chrome exporter, the
   perf-report phase accounting, and the no-observable-effect guarantee
   when tracing is disabled. *)

(* A small offloaded matmul that exercises every instrumented layer
   (pass pipeline, DMA library, DMA engine, device, interpreter). *)
let traced_matmul_run () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:8 ~k:8 in
  let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:8 ~k:8 () in
  let tracer = Axi4mlir.enable_tracing bench in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)
  in
  (bench, tracer, counters)

(* ------------------------------------------------------------------ *)
(* Perf_counters reflection                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_fields_roundtrip () =
  let a = Perf_counters.create () in
  a.Perf_counters.cycles <- 123.0;
  a.Perf_counters.dma_words_sent <- 17.0;
  a.Perf_counters.l2_misses <- 3.0;
  let kvs = Perf_counters.fields a in
  Alcotest.(check int) "one entry per field" (List.length Perf_counters.field_names)
    (List.length kvs);
  Alcotest.(check (float 0.0)) "fields reads cycles" 123.0 (List.assoc "cycles" kvs);
  let b = Perf_counters.of_fields kvs in
  Alcotest.(check string) "of_fields round-trips" (Perf_counters.to_string a)
    (Perf_counters.to_string b);
  let c = Result.get_ok (Perf_counters.of_json_result (Perf_counters.to_json a)) in
  Alcotest.(check string) "JSON round-trips" (Perf_counters.to_string a)
    (Perf_counters.to_string c);
  Alcotest.check_raises "unknown field rejected"
    (Invalid_argument "Perf_counters.of_fields: unknown field bogus") (fun () ->
      ignore (Perf_counters.of_fields [ ("bogus", 1.0) ]))

let test_counter_arith_via_fields () =
  let a = Perf_counters.create () and b = Perf_counters.create () in
  a.Perf_counters.cycles <- 100.0;
  a.Perf_counters.flops <- 8.0;
  b.Perf_counters.cycles <- 40.0;
  b.Perf_counters.branches <- 5.0;
  let d = Perf_counters.diff a b in
  Alcotest.(check (float 0.0)) "diff cycles" 60.0 d.Perf_counters.cycles;
  Alcotest.(check (float 0.0)) "diff branches" (-5.0) d.Perf_counters.branches;
  let s = Perf_counters.scale a 0.5 in
  Alcotest.(check (float 0.0)) "scale flops" 4.0 s.Perf_counters.flops;
  let sum = Perf_counters.add a b in
  Alcotest.(check (float 0.0)) "add cycles" 140.0 sum.Perf_counters.cycles;
  Perf_counters.accumulate b a;
  Alcotest.(check (float 0.0)) "accumulate cycles" 140.0 b.Perf_counters.cycles;
  (* every field participates: diff of identical counters is all-zero *)
  let z = Perf_counters.diff a (Perf_counters.copy a) in
  List.iter
    (fun (name, v) -> Alcotest.(check (float 0.0)) ("zero " ^ name) 0.0 v)
    (Perf_counters.fields z)

(* ------------------------------------------------------------------ *)
(* Tracer core                                                         *)
(* ------------------------------------------------------------------ *)

let test_disabled_tracer_is_inert () =
  let t = Trace.create () in
  Alcotest.(check bool) "starts disabled" false (Trace.enabled t);
  Trace.begin_span t "x";
  Trace.instant t "y";
  Trace.end_span t;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events t));
  Alcotest.(check int) "no open spans" 0 (Trace.open_spans t);
  Alcotest.(check int) "with_span passes value through" 41
    (Trace.with_span t "z" (fun () -> 41))

let test_span_deltas () =
  let clock = ref 0.0 and counter = ref 0.0 in
  let t = Trace.create () in
  Trace.enable t
    ~clock:(fun () -> !clock)
    ~snapshot:(fun () -> [ ("c", !counter) ]);
  Trace.begin_span t ~cat:"outer" "o";
  clock := 10.0;
  counter := 4.0;
  Trace.with_span t ~cat:"inner" "i" (fun () ->
      clock := 25.0;
      counter := 7.0);
  Trace.end_span t;
  match Trace.events t with
  | [ ob; ib; ie; oe ] ->
    Alcotest.(check bool) "begin kinds" true
      (ob.Trace.ev_kind = Trace.Begin && ib.Trace.ev_kind = Trace.Begin);
    Alcotest.(check (float 0.0)) "inner delta" 3.0
      (match List.assoc "d_c" ie.Trace.ev_args with
      | Trace.Num v -> v
      | _ -> nan);
    Alcotest.(check (float 0.0)) "outer delta spans both" 7.0
      (match List.assoc "d_c" oe.Trace.ev_args with
      | Trace.Num v -> v
      | _ -> nan);
    Alcotest.(check (float 0.0)) "end timestamp" 25.0 oe.Trace.ev_ts
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs)

let test_traced_run_well_formed () =
  let _bench, tracer, _counters = traced_matmul_run () in
  let events = Trace.events tracer in
  Alcotest.(check bool) "events recorded" true (events <> []);
  Alcotest.(check int) "all spans closed" 0 (Trace.open_spans tracer);
  let host =
    List.filter (fun e -> e.Trace.ev_track = Trace.host_track) events
  in
  let begins =
    List.length (List.filter (fun e -> e.Trace.ev_kind = Trace.Begin) host)
  in
  let ends = List.length (List.filter (fun e -> e.Trace.ev_kind = Trace.End) host) in
  Alcotest.(check int) "balanced begin/end" begins ends;
  (* the host track rides the simulated cycle counter: non-decreasing *)
  ignore
    (List.fold_left
       (fun prev e ->
         Alcotest.(check bool)
           (Printf.sprintf "monotonic at %s (%g >= %g)" e.Trace.ev_name e.Trace.ev_ts
              prev)
           true
           (e.Trace.ev_ts >= prev);
         e.Trace.ev_ts)
       0.0 host)

let test_measure_clears_trace () =
  let bench, tracer, _counters = traced_matmul_run () in
  let before = List.length (Trace.events tracer) in
  Alcotest.(check bool) "first run recorded" true (before > 0);
  let _ = Axi4mlir.measure bench (fun () -> ()) in
  Alcotest.(check int) "reset drops stale events" 0 (List.length (Trace.events tracer))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_valid_json () =
  let _bench, tracer, _counters = traced_matmul_run () in
  let doc = Json.of_string (Chrome_trace.to_string ~cpu_freq_mhz:650.0 (Trace.events tracer)) in
  let records = Json.to_list (Json.member "traceEvents" doc) in
  Alcotest.(check bool) "has records beyond metadata" true (List.length records > 6);
  List.iter
    (fun r ->
      let ph = Json.to_str (Json.member "ph" r) in
      Alcotest.(check bool) ("known phase " ^ ph) true
        (List.mem ph [ "B"; "E"; "i"; "X"; "M" ]))
    records

let test_phase_sum_matches_aggregate () =
  let _bench, tracer, counters = traced_matmul_run () in
  let total = Perf_counters.fields counters in
  let phases = Perf_report.phase_breakdown ~total (Trace.events tracer) in
  let cycle_sum =
    List.fold_left (fun acc ph -> acc +. Perf_report.phase_field ph "cycles") 0.0 phases
  in
  Alcotest.(check bool)
    (Printf.sprintf "phase cycles %.3f sum to aggregate %.3f" cycle_sum
       counters.Perf_counters.cycles)
    true
    (Float.abs (cycle_sum -. counters.Perf_counters.cycles)
    <= 1e-6 *. Float.max 1.0 counters.Perf_counters.cycles);
  (* the breakdown names the phases the instrumentation emits *)
  let names = List.map (fun p -> p.Perf_report.ph_name) phases in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("has phase " ^ expected) true (List.mem expected names))
    [ "init"; "dma_send"; "dma_recv"; "copy_to_accel"; "host" ]

let test_render_report () =
  let _bench, tracer, counters = traced_matmul_run () in
  let report =
    Perf_report.render ~cpu_freq_mhz:650.0 ~bus_words_per_cpu_cycle:0.25
      ~accel_freq_mhz:100.0
      ~total:(Perf_counters.fields counters)
      (Trace.events tracer)
  in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and rl = String.length report in
        let rec scan i = i + nl <= rl && (String.sub report i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) ("report mentions " ^ needle) true found)
    [ "dma_send"; "task clock"; "occupancy"; "DMA bandwidth" ]

(* Division-by-zero regression: every derived metric must degrade to
   [None] / "n/a" on an empty run instead of printing nan. *)
let test_derived_metrics_zero_guard () =
  let zero = Perf_counters.fields (Perf_counters.create ()) in
  Alcotest.(check bool) "task clock guards zero frequency" true
    (Perf_report.task_clock_ms ~cpu_freq_mhz:0.0 ~total:zero = None);
  Alcotest.(check bool) "flops/cycle guards zero cycles" true
    (Perf_report.flops_per_cycle ~total:zero = None);
  Alcotest.(check bool) "arithmetic intensity guards zero DMA traffic" true
    (Perf_report.arithmetic_intensity ~total:zero = None);
  Alcotest.(check bool) "occupancy guards zero cycles" true
    (Perf_report.occupancy_pct ~cpu_freq_mhz:650.0 ~accel_freq_mhz:100.0 ~total:zero
    = None);
  Alcotest.(check bool) "bandwidth guards empty phase list" true
    (Perf_report.dma_bandwidth_pct ~bus_words_per_cpu_cycle:0.25 ~total:zero [] = None);
  let report =
    Perf_report.render ~cpu_freq_mhz:650.0 ~bus_words_per_cpu_cycle:0.25
      ~accel_freq_mhz:100.0 ~total:zero []
  in
  let contains needle =
    let nl = String.length needle and rl = String.length report in
    let rec scan i = i + nl <= rl && (String.sub report i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "report prints n/a" true (contains "n/a");
  Alcotest.(check bool) "report never prints nan" false (contains "nan")

(* A double-buffered run records async transfer windows (tracks >= 20)
   and flow arrows between token issue and wait. *)
let double_buffered_run () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:8 ~k:8 in
  let options = { Axi4mlir.default_codegen with Axi4mlir.double_buffer = true } in
  let ir = Axi4mlir.compile_matmul bench ~options ~m:8 ~n:8 ~k:8 () in
  let tracer = Axi4mlir.enable_tracing bench in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  (bench, tracer, counters)

(* Overlap ratio: None (rendered "n/a") on a blocking run — a 0.0 here
   would read as "measured, and zero" when nothing asynchronous ever
   happened — and Some on a double-buffered run of the same shape. *)
let test_overlap_ratio_both_paths () =
  let _bench, tracer, counters = traced_matmul_run () in
  let total = Perf_counters.fields counters in
  let events = Trace.events tracer in
  Alcotest.(check bool) "blocking run reports None" true
    (Perf_report.overlap_ratio ~total events = None);
  let report =
    Perf_report.render ~cpu_freq_mhz:650.0 ~bus_words_per_cpu_cycle:0.25
      ~accel_freq_mhz:100.0 ~total events
  in
  let contains needle =
    let nl = String.length needle and rl = String.length report in
    let rec scan i = i + nl <= rl && (String.sub report i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "render shows n/a for overlap" true
    (contains "transfer overlap      : n/a");
  let _bench, tracer, counters = double_buffered_run () in
  match Perf_report.overlap_ratio ~total:(Perf_counters.fields counters) (Trace.events tracer) with
  | None -> Alcotest.fail "double-buffered run reported no overlap"
  | Some r -> Alcotest.(check bool) "overlap ratio is positive" true (r > 0.0)

(* Flow-arrow ids must be unique for the lifetime of the recording
   sink: ids are NOT reset by clear, so arrows from different measured
   runs (or engines) can never alias when their events are merged into
   one exported trace. *)
let test_flow_ids_globally_unique () =
  let t = Trace.create () in
  Alcotest.(check int) "disabled sink allocates 0" 0 (Trace.fresh_flow_id t);
  Trace.enable t;
  let a = Trace.fresh_flow_id t and b = Trace.fresh_flow_id t in
  Alcotest.(check bool) "consecutive ids distinct" true (a <> b);
  Trace.clear t;
  let c = Trace.fresh_flow_id t in
  Alcotest.(check bool) "clear does not recycle ids" true (c <> a && c <> b);
  (* end-to-end: two measured runs on one SoC tracer must not share ids *)
  let bench, tracer, _ = double_buffered_run () in
  let flow_ids () =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with Trace.Flow_start id -> Some id | _ -> None)
      (Trace.events tracer)
  in
  let first = flow_ids () in
  Alcotest.(check bool) "async run records flow arrows" true (first <> []);
  Alcotest.(check int) "ids unique within a run" (List.length first)
    (List.length (List.sort_uniq compare first));
  (* every arrow started is finished (the token was waited on) *)
  let finishes =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with Trace.Flow_finish id -> Some id | _ -> None)
      (Trace.events tracer)
  in
  Alcotest.(check (list int)) "starts pair with finishes"
    (List.sort compare first) (List.sort compare finishes);
  let a2, b2, c2 = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:8 ~k:8 in
  let options = { Axi4mlir.default_codegen with Axi4mlir.double_buffer = true } in
  let ir = Axi4mlir.compile_matmul bench ~options ~m:8 ~n:8 ~k:8 () in
  let _ =
    Axi4mlir.measure bench (fun () ->
        Axi4mlir.run_matmul bench ~options ir ~a:a2 ~b:b2 ~c:c2)
  in
  let second = flow_ids () in
  Alcotest.(check bool) "second run records flow arrows" true (second <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "id %d not reused across runs" id)
        false (List.mem id first))
    second

(* ------------------------------------------------------------------ *)
(* Pass stats                                                          *)
(* ------------------------------------------------------------------ *)

let test_pass_stats () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let bench = Axi4mlir.create accel in
  let stats = ref [] in
  let tracer = Trace.create () in
  Trace.enable tracer ~clock:(fun () -> 0.0);
  let modul = Axi4mlir.build_matmul_module ~m:8 ~n:8 ~k:8 () in
  let ir = Axi4mlir.compile bench ~stats ~tracer modul in
  Alcotest.(check bool) "one stat per pass" true (List.length !stats >= 4);
  (* the IR is untouched between passes, so the counts chain from the
     input module's size to the output's *)
  let count = Ir.count_ops (fun _ -> true) in
  let last =
    List.fold_left
      (fun before s ->
        Alcotest.(check int) (s.Pass.st_pass ^ " starts where the last pass ended") before
          s.Pass.st_ops_before;
        s.Pass.st_ops_after)
      (count modul) !stats
  in
  Alcotest.(check int) "last count is the output's" (count ir) last;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Pass.st_pass ^ " counts ops") true
        (s.Pass.st_ops_before > 0 && s.Pass.st_ops_after > 0);
      Alcotest.(check bool) (s.Pass.st_pass ^ " non-negative time") true
        (s.Pass.st_seconds >= 0.0))
    !stats;
  let compile_events = Trace.events tracer in
  Alcotest.(check int) "one compile-track event per pass" (List.length !stats)
    (List.length
       (List.filter (fun e -> e.Trace.ev_track = Trace.compile_track) compile_events));
  let report = Pass.report_stats !stats in
  Alcotest.(check bool) "report names a pass" true
    (List.exists
       (fun s ->
         let needle = s.Pass.st_pass in
         let nl = String.length needle and rl = String.length report in
         let rec scan i = i + nl <= rl && (String.sub report i nl = needle || scan (i + 1)) in
         scan 0)
       !stats)

(* ------------------------------------------------------------------ *)
(* Zero-cost when disabled                                             *)
(* ------------------------------------------------------------------ *)

let run_once ~traced () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:12 ~k:16 in
  let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:12 ~k:16 () in
  if traced then ignore (Axi4mlir.enable_tracing bench);
  Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)

let test_tracing_does_not_perturb_counters () =
  let off = run_once ~traced:false () in
  let on = run_once ~traced:true () in
  List.iter2
    (fun (name, v_off) (_, v_on) ->
      Alcotest.(check (float 0.0)) ("identical " ^ name) v_off v_on)
    (Perf_counters.fields off) (Perf_counters.fields on)

(* ------------------------------------------------------------------ *)
(* Golden simulated-time trace                                         *)
(* ------------------------------------------------------------------ *)

(* Every simulated-time event of three traced runs, one JSON object per
   line: the v3_16 Cs 16^3 blocking run at the runtime-call level and
   at the accel level (the interpreter's own [accel.recv]), and a v4_16
   Ns 32^3 double-buffered run (ping-pong sends, token receives).
   Compile-track events are stamped with host time and stay out. Any
   diff means a transfer path moved a span, a mark or a counter. On a
   mismatch the fresh rendering is written to
   [trace_transfers.fresh.json] in the test's build directory; copy it
   over the golden after an intentional change. *)
let golden_trace_runs () =
  let run config ~options ~m =
    let host, accel =
      Result.get_ok
        (Config_parser.parse_file_result
           (Filename.concat (Filename.concat ".." "examples/configs") config))
    in
    let bench = Axi4mlir.create ~host accel in
    let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n:m ~k:m in
    let ir = Axi4mlir.compile_matmul bench ~options ~m ~n:m ~k:m () in
    let tracer = Axi4mlir.enable_tracing bench in
    ignore (Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c));
    List.filter (fun e -> e.Trace.ev_track <> Trace.compile_track) (Trace.events tracer)
  in
  (* The manual Rs conv driver picks its copy per view: its weight
     slices and output rows of 4 are Specialized, its patches (runs of
     fHW) and output rows of 3 are Bare. *)
  let manual_conv ~ic ~ihw ~fhw =
    let accel = Presets.conv ~flow:"Ws" () in
    let bench = Axi4mlir.create accel in
    let i, w, o =
      Axi4mlir.alloc_conv_operands bench ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc:1 ~fh:fhw ~fw:fhw
    in
    let tracer = Axi4mlir.enable_tracing bench in
    ignore
      (Axi4mlir.measure bench (fun () ->
           Manual_conv.run bench.Axi4mlir.soc accel ~flow:"Rs" ~input:i ~filter:w ~output:o ()));
    Trace.events tracer
  in
  let default = Axi4mlir.default_codegen in
  [
    ("v3_16_cs blocking", run "v3_16_cs.json" ~options:default ~m:16);
    ( "v3_16_cs blocking, generic copies",
      run "v3_16_cs.json" ~options:{ default with copy_specialization = false } ~m:16 );
    ( "v3_16_cs blocking, accel level",
      run "v3_16_cs.json" ~options:{ default with to_runtime_calls = false } ~m:16 );
    ( "v4_16 Ns double-buffered",
      run "v4_16.json" ~options:{ default with flow = Some "Ns"; double_buffer = true } ~m:32 );
    ("conv Rs manual, fHW=1", manual_conv ~ic:4 ~ihw:4 ~fhw:1);
    ("conv Rs manual, fHW=3", manual_conv ~ic:2 ~ihw:5 ~fhw:3);
  ]

let event_json run (e : Trace.event) =
  let kind, extra =
    match e.ev_kind with
    | Trace.Begin -> ("B", [])
    | Trace.End -> ("E", [])
    | Trace.Instant -> ("i", [])
    | Trace.Complete dur -> ("X", [ ("dur", Json.Float dur) ])
    | Trace.Counter v -> ("C", [ ("value", Json.Float v) ])
    | Trace.Flow_start id -> ("s", [ ("id", Json.Int id) ])
    | Trace.Flow_finish id -> ("f", [ ("id", Json.Int id) ])
  in
  let arg = function
    | Trace.Str s -> Json.String s
    | Trace.Num f -> Json.Float f
    | Trace.Int n -> Json.Int n
    | Trace.Bool b -> Json.Bool b
  in
  Json.to_string
    (Json.Obj
       ([
          ("run", Json.String run);
          ("name", Json.String e.ev_name);
          ("cat", Json.String e.ev_cat);
          ("ph", Json.String kind);
          ("track", Json.Int e.ev_track);
          ("ts", Json.Float e.ev_ts);
        ]
       @ extra
       @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg v)) e.ev_args)) ]))

let test_golden_trace () =
  let lines =
    List.concat_map (fun (run, events) -> List.map (event_json run) events) (golden_trace_runs ())
  in
  let fresh = "[\n" ^ String.concat ",\n" lines ^ "\n]\n" in
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "trace_transfers.json") In_channel.input_all
  in
  if fresh <> golden then begin
    Out_channel.with_open_bin "trace_transfers.fresh.json" (fun oc ->
        Out_channel.output_string oc fresh);
    Alcotest.(check string) "trace matches golden/trace_transfers.json" golden fresh
  end

let tests =
  [
    Alcotest.test_case "counter fields/JSON round-trip" `Quick test_counter_fields_roundtrip;
    Alcotest.test_case "counter arithmetic via fields" `Quick test_counter_arith_via_fields;
    Alcotest.test_case "disabled tracer is inert" `Quick test_disabled_tracer_is_inert;
    Alcotest.test_case "span deltas" `Quick test_span_deltas;
    Alcotest.test_case "traced run is well-formed" `Quick test_traced_run_well_formed;
    Alcotest.test_case "measure clears stale events" `Quick test_measure_clears_trace;
    Alcotest.test_case "chrome export is valid JSON" `Quick test_chrome_export_valid_json;
    Alcotest.test_case "phase cycles sum to aggregate" `Quick test_phase_sum_matches_aggregate;
    Alcotest.test_case "perf report renders" `Quick test_render_report;
    Alcotest.test_case "derived metrics guard division by zero" `Quick
      test_derived_metrics_zero_guard;
    Alcotest.test_case "overlap ratio: n/a blocking, measured async" `Quick
      test_overlap_ratio_both_paths;
    Alcotest.test_case "flow ids are globally unique" `Quick
      test_flow_ids_globally_unique;
    Alcotest.test_case "pass stats and compile events" `Quick test_pass_stats;
    Alcotest.test_case "tracing does not perturb counters" `Quick
      test_tracing_does_not_perturb_counters;
    Alcotest.test_case "golden: simulated-time trace of the transfer paths" `Quick
      test_golden_trace;
  ]
