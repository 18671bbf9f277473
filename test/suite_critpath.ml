(* Tests for the critical-path profiler and the perf doctor: the
   backward walk over hand-built event DAGs (exact segment extents and
   categories), the what-if estimator arithmetic, the exactness
   invariants on real measured runs (blocking and double-buffered), the
   doctor's rendering/remarks/metrics/trace surfaces, and a golden file
   pinning the axi4mlir-critpath-v1 artifact for one fixed workload. *)

let iv ?(agent = "host") ?not_before ?dep ?(mark = false) ?(jump = false)
    ?(offload = false) ~seq ~label ~category start finish =
  {
    Critpath.iv_seq = seq;
    iv_agent = agent;
    iv_label = label;
    iv_start = start;
    iv_finish = finish;
    iv_not_before = (match not_before with Some nb -> nb | None -> start);
    iv_dep = dep;
    iv_mark = mark;
    iv_jump = jump;
    iv_category = category;
    iv_offload = offload;
  }

let input ?(host_end = 0.0) ?(dma_transfer = 0.0) ?(accel_busy = 0.0) ~makespan
    intervals =
  {
    Critpath.in_makespan = makespan;
    in_host_end = host_end;
    in_dma_transfer = dma_transfer;
    in_accel_busy = accel_busy;
    in_intervals = intervals;
  }

let analyze_ok inp =
  match Critpath.analyze inp with
  | Ok report -> report
  | Error msg -> Alcotest.failf "analyze failed: %s" msg

let check_segment ~what (start, finish, category) (sg : Critpath.segment) =
  Alcotest.(check (float 0.0)) (what ^ " start") start sg.Critpath.sg_start;
  Alcotest.(check (float 0.0)) (what ^ " finish") finish sg.Critpath.sg_finish;
  Alcotest.(check string)
    (what ^ " category")
    (Critpath.category_name category)
    (Critpath.category_name sg.Critpath.sg_category)

let attribution report category =
  List.assoc category report.Critpath.rp_attribution

let ceiling report name =
  List.find_map
    (fun (w : Critpath.whatif) ->
      if w.Critpath.wf_name = name then Some w.Critpath.wf_speedup else None)
    report.Critpath.rp_whatifs
  |> Option.join

(* ------------------------------------------------------------------ *)
(* Hand-built DAGs                                                     *)
(* ------------------------------------------------------------------ *)

let test_empty_run () =
  let report = analyze_ok (input ~makespan:0.0 []) in
  Alcotest.(check int) "empty path" 0 (List.length report.Critpath.rp_segments);
  Alcotest.(check string) "idle run is host-bound" "host"
    (Critpath.resource_name report.Critpath.rp_binding);
  List.iter
    (fun (w : Critpath.whatif) ->
      Alcotest.(check bool) (w.Critpath.wf_name ^ " degenerates") true
        (w.Critpath.wf_speedup = None))
    report.Critpath.rp_whatifs

let test_host_only_run () =
  let report = analyze_ok (input ~makespan:100.0 ~host_end:100.0 []) in
  (match report.Critpath.rp_segments with
  | [ sg ] -> check_segment ~what:"whole run" (0.0, 100.0, Critpath.Host_compute) sg
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs));
  Alcotest.(check (float 0.0)) "all cycles are host compute" 100.0
    (attribution report Critpath.Host_compute);
  Alcotest.(check string) "host-bound" "host"
    (Critpath.resource_name report.Critpath.rp_binding);
  Alcotest.(check (option (float 1e-9))) "perfect overlap cannot help" (Some 1.0)
    (ceiling report "perfect-overlap")

(* A token round trip as Dma_engine records it: the host programs a
   send (mark), the channel carries it (agent event), the device
   computes off the token (dep edge), the result streams back (dep
   edge), the host stalls on the receive token (jump mark) and drains
   the poll, then finishes serially. *)
let token_roundtrip_input () =
  input ~makespan:100.0 ~host_end:100.0 ~dma_transfer:35.0 ~accel_busy:50.0
    [
      iv ~seq:0 ~mark:true ~label:"program_send" ~category:Critpath.Dma_send 0.0 10.0;
      iv ~seq:1 ~agent:"dma0" ~label:"send" ~category:Critpath.Dma_send 10.0 30.0;
      iv ~seq:2 ~agent:"dev0" ~dep:1 ~label:"compute" ~category:Critpath.Accel_compute
        30.0 80.0;
      iv ~seq:3 ~agent:"dma0" ~dep:2 ~label:"recv" ~category:Critpath.Dma_recv 80.0 95.0;
      iv ~seq:4 ~mark:true ~jump:true ~offload:true ~dep:3 ~label:"token_stall"
        ~category:Critpath.Wait_stall 40.0 95.0;
      iv ~seq:5 ~mark:true ~offload:true ~label:"dma_poll"
        ~category:Critpath.Wait_stall 95.0 98.0;
    ]

let test_token_roundtrip_walk () =
  let report = analyze_ok (token_roundtrip_input ()) in
  (match report.Critpath.rp_segments with
  | [ a; b; c; d; e; f ] ->
    check_segment ~what:"programming" (0.0, 10.0, Critpath.Dma_send) a;
    check_segment ~what:"outbound transfer" (10.0, 30.0, Critpath.Dma_send) b;
    check_segment ~what:"device compute" (30.0, 80.0, Critpath.Accel_compute) c;
    check_segment ~what:"inbound transfer" (80.0, 95.0, Critpath.Dma_recv) d;
    check_segment ~what:"drain poll" (95.0, 98.0, Critpath.Wait_stall) e;
    check_segment ~what:"host tail" (98.0, 100.0, Critpath.Host_compute) f;
    (* the jump mark routed the walk into the agent chain: the stalled
       window is attributed to the transfer and the device, never to
       the shadowing token_stall mark *)
    Alcotest.(check string) "transfer reached through the dep edge" "dep"
      (Critpath.bound_name d.Critpath.sg_bound)
  | segs -> Alcotest.failf "expected 6 segments, got %d" (List.length segs));
  Alcotest.(check (float 0.0)) "send attribution" 30.0
    (attribution report Critpath.Dma_send);
  Alcotest.(check (float 0.0)) "recv attribution" 15.0
    (attribution report Critpath.Dma_recv);
  Alcotest.(check (float 0.0)) "compute attribution" 50.0
    (attribution report Critpath.Accel_compute);
  Alcotest.(check (float 0.0)) "stall attribution" 3.0
    (attribution report Critpath.Wait_stall);
  Alcotest.(check (float 0.0)) "host attribution" 2.0
    (attribution report Critpath.Host_compute);
  Alcotest.(check string) "the device binds this path" "accel"
    (Critpath.resource_name report.Critpath.rp_binding)

let test_token_roundtrip_whatifs () =
  let report = analyze_ok (token_roundtrip_input ()) in
  (* zero-cost DMA removes send(30) + recv(15) + stall(3) = 48 of 100 *)
  Alcotest.(check (option (float 1e-9))) "zero-cost-dma" (Some (100.0 /. 52.0))
    (ceiling report "zero-cost-dma");
  (* no transfer queued behind its channel: no slack to reclaim *)
  Alcotest.(check (option (float 1e-9))) "infinite-dma-channels" (Some 1.0)
    (ceiling report "infinite-dma-channels");
  (* the host sheds its offloadable marks (55 + 3), floor 42; the
     device (50 cycles busy) is then the busiest leg *)
  Alcotest.(check (option (float 1e-9))) "perfect-overlap" (Some 2.0)
    (ceiling report "perfect-overlap")

(* Three transfers queued on one channel; the second could have started
   30 cycles earlier on an idle channel. The walk records that slack on
   the agent-bound segment and infinite-dma-channels reclaims it. *)
let test_channel_slack () =
  let inp =
    input ~makespan:130.0 ~host_end:0.0 ~dma_transfer:100.0 ~accel_busy:30.0
      [
        iv ~seq:0 ~agent:"dma0" ~label:"send" ~category:Critpath.Dma_send 0.0 40.0;
        iv ~seq:1 ~agent:"dma0" ~not_before:10.0 ~label:"send"
          ~category:Critpath.Dma_send 40.0 90.0;
        iv ~seq:2 ~agent:"dma0" ~not_before:20.0 ~label:"send"
          ~category:Critpath.Dma_send 90.0 100.0;
        iv ~seq:3 ~agent:"dev0" ~dep:2 ~label:"compute" ~category:Critpath.Accel_compute
          100.0 130.0;
      ]
  in
  let report = analyze_ok inp in
  Alcotest.(check int) "four segments" 4 (List.length report.Critpath.rp_segments);
  let queued = List.nth report.Critpath.rp_segments 1 in
  Alcotest.(check string) "queued transfer is agent-bound" "agent"
    (Critpath.bound_name queued.Critpath.sg_bound);
  Alcotest.(check (float 0.0)) "its slack is recorded" 30.0 queued.Critpath.sg_slack;
  Alcotest.(check string) "transfer-dominated path is dma-bound" "dma"
    (Critpath.resource_name report.Critpath.rp_binding);
  Alcotest.(check (option (float 1e-9))) "infinite channels reclaim the slack"
    (Some (130.0 /. 100.0))
    (ceiling report "infinite-dma-channels");
  Alcotest.(check (option (float 1e-9))) "zero-cost-dma leaves the compute"
    (Some (130.0 /. 30.0))
    (ceiling report "zero-cost-dma")

let test_verify_rejects_corruption () =
  let inp = token_roundtrip_input () in
  let report = analyze_ok inp in
  (match Critpath.verify inp report with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "verify rejected a clean report: %s" msg);
  let gapped = { report with Critpath.rp_segments = List.tl report.Critpath.rp_segments } in
  Alcotest.(check bool) "verify catches a dropped segment" true
    (Result.is_error (Critpath.verify inp gapped));
  let inflated =
    {
      report with
      Critpath.rp_attribution =
        List.map (fun (c, v) -> (c, v +. 1.0)) report.Critpath.rp_attribution;
    }
  in
  Alcotest.(check bool) "verify catches drifted attribution" true
    (Result.is_error (Critpath.verify inp inflated))

(* ------------------------------------------------------------------ *)
(* Real measured runs                                                  *)
(* ------------------------------------------------------------------ *)

let measured_run ?(size = 4) ?(flow = "Cs") ?(dims = 8) ~double_buffer () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size ~flow () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:dims ~n:dims ~k:dims in
  let options = { Axi4mlir.default_codegen with Axi4mlir.double_buffer } in
  let ir = Axi4mlir.compile_matmul bench ~options ~m:dims ~n:dims ~k:dims () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  (bench, counters)

let check_run_exactness ~what ~double_buffer () =
  let bench, counters = measured_run ~double_buffer () in
  let inp = Soc.critpath_input bench.Axi4mlir.soc in
  let report = analyze_ok inp in
  Alcotest.(check (float 0.0))
    (what ^ ": path length is the reported task clock")
    counters.Perf_counters.cycles report.Critpath.rp_makespan;
  (match Critpath.verify inp report with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg);
  report

let test_blocking_run_exact () =
  let report = check_run_exactness ~what:"blocking" ~double_buffer:false () in
  (* a blocking schedule never waits on a token *)
  Alcotest.(check (float 0.0)) "no status checks on a blocking path" 0.0
    (attribution report Critpath.Status_check)

let test_double_buffered_run_exact () =
  ignore (check_run_exactness ~what:"double-buffered" ~double_buffer:true ())

(* ------------------------------------------------------------------ *)
(* The doctor's surfaces                                               *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let diagnose_run ?top_k ~double_buffer () =
  let bench, counters = measured_run ~double_buffer () in
  match Doctor.diagnose ?top_k (Soc.critpath_input bench.Axi4mlir.soc) with
  | Ok dg -> (bench, counters, dg)
  | Error msg -> Alcotest.failf "diagnose failed: %s" msg

let test_doctor_render () =
  let _, _, dg = diagnose_run ~top_k:3 ~double_buffer:false () in
  Alcotest.(check bool) "top-k respected" true (List.length dg.Doctor.dg_top <= 3);
  let text = Doctor.render dg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("diagnosis mentions " ^ needle) true (contains text needle))
    [ "binding resource"; "Critical-path attribution"; "What-if ceilings"; "host_compute" ];
  Alcotest.(check bool) "diagnosis is never empty" true (String.trim text <> "")

let test_doctor_json_schema () =
  let _, counters, dg = diagnose_run ~double_buffer:false () in
  let doc = Doctor.to_json dg in
  Alcotest.(check string) "schema tag" "axi4mlir-critpath-v1"
    (Json.to_str (Json.member "schema" doc));
  Alcotest.(check (float 0.0)) "makespan field" counters.Perf_counters.cycles
    (Json.to_float (Json.member "makespan_cycles" doc));
  let attribution = Json.member "attribution" doc in
  List.iter
    (fun cat ->
      match attribution with
      | Json.Obj fields ->
        Alcotest.(check bool)
          ("attribution names " ^ Critpath.category_name cat)
          true
          (List.mem_assoc (Critpath.category_name cat) fields)
      | _ -> Alcotest.fail "attribution is not an object")
    Critpath.categories;
  let path = Json.to_list (Json.member "critical_path" doc) in
  Alcotest.(check bool) "critical path serialised" true (path <> []);
  let binding = Json.to_str (Json.member "binding_resource" doc) in
  Alcotest.(check bool) "binding resource is a known name" true
    (List.mem binding [ "host"; "dma"; "accel" ])

let test_doctor_remarks_and_metrics () =
  let _, _, dg = diagnose_run ~double_buffer:false () in
  Remarks.enable ();
  Metrics.enable Metrics.default;
  Metrics.reset Metrics.default;
  Doctor.emit_remarks ~loc:"unit" dg;
  Doctor.emit_metrics dg;
  let remarks = Remarks.all () in
  Remarks.disable ();
  Alcotest.(check bool) "a binding-resource remark lands" true
    (List.exists (fun (r : Remarks.t) -> r.Remarks.r_name = "binding-resource") remarks);
  Alcotest.(check bool) "speedup-ceiling remarks land" true
    (List.exists (fun (r : Remarks.t) -> r.Remarks.r_name = "speedup-ceiling") remarks);
  let critpath_cycles = Metrics.total "doctor.critpath_cycles" in
  Metrics.disable Metrics.default;
  Alcotest.(check bool)
    (Printf.sprintf "doctor.critpath_cycles totals the makespan (%.1f)" critpath_cycles)
    true
    (Float.abs (critpath_cycles -. dg.Doctor.dg_report.Critpath.rp_makespan)
    <= 1e-6 *. Float.max 1.0 dg.Doctor.dg_report.Critpath.rp_makespan)

let test_doctor_trace_highlight () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:8 ~k:8 in
  let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:8 ~k:8 () in
  let tracer = Axi4mlir.enable_tracing bench in
  let _ = Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c) in
  let before = List.length (Trace.events tracer) in
  let dg =
    match Doctor.diagnose (Soc.critpath_input bench.Axi4mlir.soc) with
    | Ok dg -> dg
    | Error msg -> Alcotest.failf "diagnose failed: %s" msg
  in
  Doctor.annotate_trace tracer dg;
  let events = Trace.events tracer in
  Alcotest.(check bool) "annotation adds events" true (List.length events > before);
  let highlights =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.ev_track = Trace.critpath_track
        &&
        match e.Trace.ev_kind with Trace.Complete _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "one highlight slice per path segment"
    (List.length dg.Doctor.dg_report.Critpath.rp_segments)
    (List.length highlights);
  (* consecutive segments are connected by flow arrows with fresh ids *)
  let flow_ids =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.ev_track <> Trace.critpath_track then None
        else
          match e.Trace.ev_kind with
          | Trace.Flow_start id -> Some id
          | _ -> None)
      events
  in
  let expected_arrows =
    max 0 (List.length dg.Doctor.dg_report.Critpath.rp_segments - 1)
  in
  Alcotest.(check int) "one arrow per handoff" expected_arrows (List.length flow_ids);
  Alcotest.(check int) "arrow ids are unique"
    (List.length flow_ids)
    (List.length (List.sort_uniq compare flow_ids))

(* ------------------------------------------------------------------ *)
(* Golden artifact                                                     *)
(* ------------------------------------------------------------------ *)

(* Pins the axi4mlir-critpath-v1 artifact byte-for-byte for one fixed
   workload/config — the simulator is deterministic, so any diff means
   either the cost model or the analysis changed. Regenerate after an
   intentional change with:
     dune exec bin/axi4mlir_run.exe -- \
       --config examples/configs/v3_16_cs.json --matmul 16,16,16 \
       --critical-path test/golden/critpath_v3_16_cs_16.json *)
let test_golden_artifact () =
  let host, accel =
    Result.get_ok
      (Config_parser.parse_file_result
         (Filename.concat (Filename.concat ".." "examples/configs") "v3_16_cs.json"))
  in
  let bench = Axi4mlir.create ~host accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:16 ~n:16 ~k:16 in
  let ir = Axi4mlir.compile_matmul bench ~m:16 ~n:16 ~k:16 () in
  let _ = Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c) in
  let dg =
    match Doctor.diagnose (Soc.critpath_input bench.Axi4mlir.soc) with
    | Ok dg -> dg
    | Error msg -> Alcotest.failf "diagnose failed: %s" msg
  in
  let path = Filename.concat "golden" "critpath_v3_16_cs_16.json" in
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fresh = Json.to_string ~indent:1 (Doctor.to_json dg) ^ "\n" in
  Alcotest.(check string) "critpath artifact matches the golden file" golden fresh

let tests =
  [
    Alcotest.test_case "empty run" `Quick test_empty_run;
    Alcotest.test_case "host-only run" `Quick test_host_only_run;
    Alcotest.test_case "token round trip: walk" `Quick test_token_roundtrip_walk;
    Alcotest.test_case "token round trip: what-ifs" `Quick test_token_roundtrip_whatifs;
    Alcotest.test_case "channel slack feeds infinite-dma" `Quick test_channel_slack;
    Alcotest.test_case "verify rejects corruption" `Quick test_verify_rejects_corruption;
    Alcotest.test_case "blocking run: exact invariants" `Quick test_blocking_run_exact;
    Alcotest.test_case "double-buffered run: exact invariants" `Quick
      test_double_buffered_run_exact;
    Alcotest.test_case "doctor renders a diagnosis" `Quick test_doctor_render;
    Alcotest.test_case "doctor JSON carries the v1 schema" `Quick test_doctor_json_schema;
    Alcotest.test_case "doctor remarks and metrics" `Quick test_doctor_remarks_and_metrics;
    Alcotest.test_case "doctor highlights the trace" `Quick test_doctor_trace_highlight;
    Alcotest.test_case "golden: critpath artifact" `Quick test_golden_artifact;
  ]
