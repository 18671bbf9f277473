(* Tests for the asynchronous DMA timeline and the double-buffer
   software-pipelining pass: timeline determinism and tie-breaking,
   bit-compatibility of the blocking path, and the end-to-end overlap
   win (identical outputs, identical DMA traffic, fewer cycles). *)

let ( => ) name b = Alcotest.(check bool) name true b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_determinism () =
  let build () =
    let tl = Timeline.create () in
    let dma = Timeline.add_agent tl ~name:"dma0" in
    let acc = Timeline.add_agent tl ~name:"accel" in
    let f1 = Timeline.schedule tl dma ~not_before:10.0 ~duration:100.0 ~label:"send" () in
    let f2 = Timeline.schedule tl acc ~not_before:f1 ~duration:50.0 ~label:"compute" () in
    let f3 = Timeline.schedule tl dma ~not_before:20.0 ~duration:30.0 ~label:"send" () in
    ( (f1, f2, f3),
      Timeline.makespan tl,
      List.map (fun e -> (e.Timeline.ev_label, e.Timeline.ev_start)) (Timeline.events tl)
    )
  in
  let a = build () and b = build () in
  Alcotest.(check bool) "two identical runs agree exactly" true (a = b);
  let (f1, f2, f3), makespan, _ = a in
  Alcotest.(check (float 0.0)) "first transfer" 110.0 f1;
  Alcotest.(check (float 0.0)) "dependent compute" 160.0 f2;
  (* the channel is busy until 110 even though the request came at 20 *)
  Alcotest.(check (float 0.0)) "channel serialises" 140.0 f3;
  Alcotest.(check (float 0.0)) "makespan is the last busy agent" 160.0 makespan

let test_timeline_tie_breaking () =
  (* Two events starting at the same instant order by issue sequence,
     not by agent identity or label. *)
  let tl = Timeline.create () in
  let a1 = Timeline.add_agent tl ~name:"z-agent" in
  let a2 = Timeline.add_agent tl ~name:"a-agent" in
  ignore (Timeline.schedule tl a1 ~not_before:5.0 ~duration:1.0 ~label:"zzz" ());
  ignore (Timeline.schedule tl a2 ~not_before:5.0 ~duration:1.0 ~label:"aaa" ());
  match Timeline.events tl with
  | [ e1; e2 ] ->
    Alcotest.(check string) "issue order wins the tie" "zzz" e1.Timeline.ev_label;
    Alcotest.(check string) "second issue second" "aaa" e2.Timeline.ev_label
  | es -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length es))

let test_timeline_reset () =
  let tl = Timeline.create () in
  let a = Timeline.add_agent tl ~name:"dma0" in
  ignore (Timeline.schedule tl a ~not_before:0.0 ~duration:42.0 ~label:"send" ());
  Timeline.reset tl;
  Alcotest.(check (float 0.0)) "clock rewinds" 0.0 (Timeline.busy_until a);
  Alcotest.(check (float 0.0)) "makespan rewinds" 0.0 (Timeline.makespan tl);
  Alcotest.(check int) "log clears" 0 (List.length (Timeline.events tl));
  (* agents stay registered: scheduling still works *)
  Alcotest.(check (float 0.0)) "agent still usable" 7.0
    (Timeline.schedule tl a ~not_before:0.0 ~duration:7.0 ~label:"send" ())

(* ------------------------------------------------------------------ *)
(* Blocking bit-compatibility                                          *)
(* ------------------------------------------------------------------ *)

(* The async subsystem must not move a single cycle of the blocking
   path: with double_buffer off, counters match a pre-recorded run of
   the same workload (any drift here is a cost-model regression). *)
let test_blocking_counters_regression () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:8 ~k:8 in
  let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:8 ~k:8 () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)
  in
  (* makespan of a blocking run is the host clock itself *)
  Alcotest.(check (float 0.0)) "task clock = host clock"
    counters.Perf_counters.cycles
    (Soc.task_clock_cycles bench.Axi4mlir.soc);
  Alcotest.(check (float 0.0)) "cycles" 508258.5 counters.Perf_counters.cycles;
  Alcotest.(check (float 0.0)) "dma words sent" 289.0 counters.Perf_counters.dma_words_sent;
  Alcotest.(check (float 0.0)) "dma words received" 128.0
    counters.Perf_counters.dma_words_received;
  Alcotest.(check (float 0.0)) "dma transactions" 41.0
    counters.Perf_counters.dma_transactions;
  Alcotest.(check (float 0.0)) "instructions" 2541.0 counters.Perf_counters.instructions

(* ------------------------------------------------------------------ *)
(* Engine token semantics                                              *)
(* ------------------------------------------------------------------ *)

let test_pingpong_serialises_halves () =
  let soc = Soc.create () in
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:2 () in
  let engine = Accel_config.attach soc config in
  (* Stage and launch a send from half 0, then immediately try to
     reuse the same words while the transfer is in flight. *)
  Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.mm_load_a);
  for i = 1 to 4 do
    Dma_engine.stage engine ~offset:i (Axi_word.Data 1.0)
  done;
  let tok = Dma_engine.start_send_token engine in
  Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.mm_load_b);
  (match Dma_engine.start_send_token engine with
  | exception Failure msg ->
    "overlap error names the hazard" => contains msg "in flight"
  | _ -> Alcotest.fail "reusing an in-flight half must fail");
  ignore (Dma_engine.wait_token engine tok)

(* The engine keeps only outstanding transfers: a long run of waited
   tokens leaves nothing behind, yet the waited ones are still told
   apart from tokens it never issued. *)
let test_wait_token_is_linear () =
  let soc = Soc.create () in
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:2 () in
  let engine = Accel_config.attach soc config in
  let send () =
    Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.mm_load_a);
    for i = 1 to 4 do
      Dma_engine.stage engine ~offset:i (Axi_word.Data 1.0)
    done;
    Dma_engine.start_send_token engine
  in
  let rounds = 10_000 in
  let first = send () in
  ignore (Dma_engine.wait_token engine first);
  for _ = 2 to rounds do
    ignore (Dma_engine.wait_token engine (send ()))
  done;
  Alcotest.(check (list int)) "every waited token is forgotten" []
    (Dma_engine.outstanding_tokens engine);
  let live = send () in
  Alcotest.(check (list int)) "the unwaited token is the only one listed" [ live ]
    (Dma_engine.outstanding_tokens engine);
  let fails_with tok fragment =
    match Dma_engine.wait_token engine tok with
    | exception Failure msg ->
      Printf.sprintf "token %d: %S names %S" tok msg fragment
      => contains msg fragment
    | _ -> Alcotest.fail (Printf.sprintf "wait on token %d must fail" tok)
  in
  fails_with first "already waited";
  fails_with (-1) "unknown token";
  fails_with (live + 1) "unknown token";
  (* restaging the live send's words still trips the overlap check *)
  Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.mm_load_b);
  (match Dma_engine.start_send_token engine with
  | exception Failure msg -> "overlap with the live send" => contains msg "in flight"
  | _ -> Alcotest.fail "reusing the live send's half must fail");
  ignore (Dma_engine.wait_token engine live);
  Alcotest.(check (list int)) "drained" [] (Dma_engine.outstanding_tokens engine)

(* ------------------------------------------------------------------ *)
(* End-to-end double buffering                                         *)
(* ------------------------------------------------------------------ *)

let run_matmul options ~m ~n ~k =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  (counters, Memref_view.to_array c, ir)

let test_double_buffer_pipelines_and_wins () =
  let m, n, k = (64, 64, 64) in
  let blocking, out_b, _ = run_matmul Axi4mlir.default_codegen ~m ~n ~k in
  let db, out_d, ir =
    run_matmul { Axi4mlir.default_codegen with double_buffer = true } ~m ~n ~k
  in
  (* the pass really fired: the lowered IR carries async runtime calls *)
  let calls name =
    Ir.count_ops
      (fun o ->
        o.Ir.name = "func.call" && Ir.attr o "callee" = Some (Attribute.Str name))
      ir
  in
  "start_send calls present" => (calls Runtime_abi.(name Start_send_async) > 0);
  "wait calls present" => (calls Runtime_abi.(name Wait) > 0);
  (* byte-identical outputs *)
  "identical outputs" => (out_b = out_d);
  (* identical DMA traffic *)
  Alcotest.(check (float 0.0)) "words sent" blocking.Perf_counters.dma_words_sent
    db.Perf_counters.dma_words_sent;
  Alcotest.(check (float 0.0)) "words received" blocking.Perf_counters.dma_words_received
    db.Perf_counters.dma_words_received;
  Alcotest.(check (float 0.0)) "transactions" blocking.Perf_counters.dma_transactions
    db.Perf_counters.dma_transactions;
  (* and the ISSUE's headline: >= 15% fewer task-clock cycles *)
  let speedup = blocking.Perf_counters.cycles /. db.Perf_counters.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "double buffering wins >= 15%% (speedup %.3fx)" speedup)
    true (speedup >= 1.15)

let test_double_buffer_accel_level_matches_runtime_level () =
  let options =
    { Axi4mlir.default_codegen with double_buffer = true; to_runtime_calls = false }
  in
  let _, out_accel, ir = run_matmul options ~m:32 ~n:32 ~k:32 in
  "accel-level IR has token ops"
  => (Ir.count_ops (fun o -> o.Ir.name = "accel.start_send") ir > 0);
  let _, out_runtime, _ =
    run_matmul { options with to_runtime_calls = true } ~m:32 ~n:32 ~k:32
  in
  "levels agree" => (out_accel = out_runtime)

let test_token_ops_roundtrip () =
  (* printed token ops (and the !accel.token type) parse back and
     re-print identically *)
  let options =
    { Axi4mlir.default_codegen with double_buffer = true; to_runtime_calls = false }
  in
  let _, _, ir = run_matmul options ~m:32 ~n:32 ~k:32 in
  let printed = Printer.to_generic ir in
  let reparsed = Parser_ir.parse_op printed in
  Alcotest.(check string) "print -> parse -> print is stable" printed
    (Printer.to_generic reparsed);
  "reparsed module still has token ops"
  => (Ir.count_ops (fun o -> o.Ir.name = "accel.start_send") reparsed > 0);
  match Verifier.verify reparsed with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("reparsed async module fails verification: " ^ msg)

let test_overlap_ratio_reported () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  ignore (Axi4mlir.enable_tracing bench);
  let options = { Axi4mlir.default_codegen with double_buffer = true } in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:32 ~n:32 ~k:32 in
  let ir = Axi4mlir.compile_matmul bench ~options ~m:32 ~n:32 ~k:32 () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  let events = Trace.events (Axi4mlir.tracer bench) in
  (match Perf_report.overlap_ratio ~total:(Perf_counters.fields counters) events with
  | Some r -> "async work overlaps the run" => (r > 0.0)
  | None -> Alcotest.fail "no async tracks recorded");
  (* flow arrows bind each start to its wait *)
  let flow_starts =
    List.filter
      (fun e -> match e.Trace.ev_kind with Trace.Flow_start _ -> true | _ -> false)
      events
  in
  let flow_finishes =
    List.filter
      (fun e -> match e.Trace.ev_kind with Trace.Flow_finish _ -> true | _ -> false)
      events
  in
  "flow arrows emitted" => (List.length flow_starts > 0);
  Alcotest.(check int) "every arrow lands" (List.length flow_starts)
    (List.length flow_finishes)

let tests =
  [
    Alcotest.test_case "timeline is deterministic" `Quick test_timeline_determinism;
    Alcotest.test_case "timeline ties break by issue order" `Quick test_timeline_tie_breaking;
    Alcotest.test_case "timeline reset" `Quick test_timeline_reset;
    Alcotest.test_case "blocking counters unchanged (regression)" `Quick
      test_blocking_counters_regression;
    Alcotest.test_case "ping/pong halves serialise" `Quick test_pingpong_serialises_halves;
    Alcotest.test_case "tokens are linear at the engine" `Quick test_wait_token_is_linear;
    Alcotest.test_case "double buffering: same outputs, same words, >=15% faster" `Quick
      test_double_buffer_pipelines_and_wins;
    Alcotest.test_case "accel-level and runtime-level async agree" `Quick
      test_double_buffer_accel_level_matches_runtime_level;
    Alcotest.test_case "token ops round-trip through the parser" `Quick
      test_token_ops_roundtrip;
    Alcotest.test_case "overlap ratio and flow arrows in the trace" `Quick
      test_overlap_ratio_reported;
  ]
