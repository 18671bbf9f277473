(* Tests for the differential fuzzing subsystem itself: deterministic
   generation, oracle classification, the delta-debugging shrinker
   (demonstrated against an injected tiling bug), and the replayable
   corpus format. *)

let mk_matmul_case ?(engine = "v3") ?(size = 4) ?(flow = "Ns") ?tiles
    ?(cpu_tiling = false) ?(copy_specialization = true) ?(to_runtime_calls = true)
    ?(init_c = false) ~m ~n ~k () =
  {
    Fuzz_case.engine;
    size;
    flow;
    workload = Fuzz_case.Matmul { m; n; k };
    tiles;
    cpu_tiling;
    copy_specialization;
    coalesce_transfers = false;
    double_buffer = false;
    to_runtime_calls;
    dma_buffer_bytes = 0xFF00;
    data_seed = 3;
    init_c;
  }

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_generation_deterministic () =
  let sequence seed = List.init 40 (fun index -> Fuzz_gen.case_at ~seed ~index ()) in
  Alcotest.(check bool) "same seed, same sequence" true
    (List.for_all2 Fuzz_case.equal (sequence 42) (sequence 42));
  (* per-index derivation is order-insensitive: regenerating one case in
     isolation gives the same case as generating the whole sequence *)
  let full = sequence 42 in
  Alcotest.(check bool) "case 17 regenerates in isolation" true
    (Fuzz_case.equal (List.nth full 17) (Fuzz_gen.case_at ~seed:42 ~index:17 ()));
  Alcotest.(check bool) "different seeds differ somewhere" true
    (List.exists2 (fun a b -> not (Fuzz_case.equal a b)) full (sequence 43))

let test_rng_ranges () =
  let rng = Fuzz_rng.create 7 in
  for _ = 1 to 1000 do
    let v = Fuzz_rng.int_range rng 3 9 in
    Alcotest.(check bool) "int_range in bounds" true (v >= 3 && v <= 9)
  done;
  let rng = Fuzz_rng.create 8 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "bits non-negative" true (Fuzz_rng.bits rng >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Oracle classification                                               *)
(* ------------------------------------------------------------------ *)

let test_oracle_passes_known_good () =
  List.iter
    (fun case ->
      match Fuzz_oracle.run case with
      | Fuzz_oracle.Pass -> ()
      | other ->
        Alcotest.fail
          (Printf.sprintf "%s: expected pass, got %s" (Fuzz_case.to_string case)
             (Fuzz_oracle.outcome_to_string other)))
    [
      mk_matmul_case ~m:8 ~n:8 ~k:8 ();
      mk_matmul_case ~flow:"Cs" ~m:8 ~n:12 ~k:8 ~init_c:true ();
      mk_matmul_case ~engine:"v1" ~flow:"Ns" ~m:8 ~n:8 ~k:4 ();
      mk_matmul_case ~engine:"v4" ~flow:"As" ~tiles:[ 8; 4; 8 ] ~m:16 ~n:8 ~k:8 ();
      mk_matmul_case ~to_runtime_calls:false ~m:8 ~n:8 ~k:8 ();
    ]

let test_oracle_classifies_rejection () =
  (* non-dividing extent: the pipeline must refuse with a structured
     reason, which the oracle reports as Rejected, not Failed *)
  (match Fuzz_oracle.run (mk_matmul_case ~m:10 ~n:8 ~k:8 ()) with
  | Fuzz_oracle.Rejected _ -> ()
  | other ->
    Alcotest.fail ("non-dividing extent: " ^ Fuzz_oracle.outcome_to_string other));
  (* unknown flow for the engine: rejected at configuration time *)
  match Fuzz_oracle.run (mk_matmul_case ~engine:"v1" ~flow:"Cs" ~m:8 ~n:8 ~k:8 ()) with
  | Fuzz_oracle.Rejected reason ->
    Alcotest.(check bool) "names the configuration" true (String.length reason > 0)
  | other -> Alcotest.fail ("unknown flow: " ^ Fuzz_oracle.outcome_to_string other)

let test_oracle_conv_passes () =
  let case =
    {
      Fuzz_case.engine = "conv";
      size = 0;
      flow = "Ws";
      workload = Fuzz_case.Conv { ic = 2; ihw = 6; oc = 2; fhw = 3; stride = 1 };
      tiles = None;
      cpu_tiling = false;
      copy_specialization = true;
      coalesce_transfers = false;
      double_buffer = false;
      to_runtime_calls = true;
      dma_buffer_bytes = 0xFF00;
      data_seed = 11;
      init_c = false;
    }
  in
  match Fuzz_oracle.run case with
  | Fuzz_oracle.Pass -> ()
  | other -> Alcotest.fail (Fuzz_oracle.outcome_to_string other)

let test_campaign_all_clean () =
  let report = Fuzz_driver.campaign ~seed:123 ~count:25 () in
  Alcotest.(check int) "no failures" 0 report.Fuzz_driver.failed;
  Alcotest.(check int) "all cases accounted for" 25
    (report.Fuzz_driver.passed + report.Fuzz_driver.rejected)

(* ------------------------------------------------------------------ *)
(* Fault injection: the oracle catches an off-by-one tiling bug and the
   shrinker minimises it.                                              *)
(* ------------------------------------------------------------------ *)

let test_fault_injection_caught_and_shrunk () =
  let case = mk_matmul_case ~m:32 ~n:32 ~k:32 () in
  (match Fuzz_oracle.run case with
  | Fuzz_oracle.Pass -> ()
  | other ->
    Alcotest.fail ("case must pass without the fault: " ^ Fuzz_oracle.outcome_to_string other));
  Alcotest.(check bool) "fault off by default" true (!Tiling.fault = Tiling.No_fault);
  Tiling.fault := Tiling.Off_by_one_first_tile;
  Fun.protect
    ~finally:(fun () -> Tiling.fault := Tiling.No_fault)
    (fun () ->
      match Fuzz_driver.run_case case with
      | Fuzz_oracle.Pass | Fuzz_oracle.Rejected _ ->
        Alcotest.fail "oracle missed the injected tiling bug"
      | Fuzz_oracle.Failed _ ->
        let { Fuzz_shrink.minimised; steps; _ } = Fuzz_driver.shrink case in
        Alcotest.(check bool) "shrinker made progress" true (steps > 0);
        (match Fuzz_driver.run_case minimised with
        | Fuzz_oracle.Failed _ -> ()
        | _ -> Alcotest.fail "minimised case no longer fails");
        match minimised.Fuzz_case.workload with
        | Fuzz_case.Matmul { m; n; k } ->
          Alcotest.(check bool)
            (Printf.sprintf "repro is at most 8x8x8 (got %dx%dx%d)" m n k)
            true
            (m <= 8 && n <= 8 && k <= 8)
        | _ -> Alcotest.fail "workload kind changed under shrinking");
  (* the fault is reverted: the original case passes again *)
  match Fuzz_oracle.run case with
  | Fuzz_oracle.Pass -> ()
  | other -> Alcotest.fail ("fault not reverted: " ^ Fuzz_oracle.outcome_to_string other)

let test_shrinker_reaches_fixpoint () =
  (* a predicate every case satisfies: the shrinker must drive the
     workload to the granule floor and strip every optional feature *)
  let case =
    mk_matmul_case ~cpu_tiling:true ~tiles:[ 8; 8; 8 ] ~init_c:true ~m:32 ~n:32 ~k:32 ()
  in
  let { Fuzz_shrink.minimised; _ } = Fuzz_shrink.minimise ~still_fails:(fun _ -> true) case in
  (match minimised.Fuzz_case.workload with
  | Fuzz_case.Matmul { m; n; k } ->
    Alcotest.(check (list int)) "granule floor" [ 4; 4; 4 ] [ m; n; k ]
  | _ -> Alcotest.fail "workload kind changed");
  Alcotest.(check bool) "options stripped" true
    (minimised.Fuzz_case.tiles = None
    && (not minimised.Fuzz_case.cpu_tiling)
    && (not minimised.Fuzz_case.init_c)
    && minimised.Fuzz_case.data_seed = 1)

(* ------------------------------------------------------------------ *)
(* Corpus round trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  let cases = List.init 6 (fun index -> Fuzz_gen.case_at ~seed:99 ~index ()) in
  let path = Filename.temp_file "axi4mlir_corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fuzz_corpus.save path (Fuzz_gen.case_at ~seed:99 ~index:0 () :: List.tl cases);
      (* appending and hand-annotation are part of the format *)
      Fuzz_corpus.append path (List.hd cases);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "# comment line\n\n";
      close_out oc;
      let loaded, errors = Result.get_ok (Fuzz_corpus.load_result path) in
      Alcotest.(check (list string)) "no parse errors" [] errors;
      Alcotest.(check int) "all cases loaded" 7 (List.length loaded);
      Alcotest.(check bool) "cases survive the round trip" true
        (List.for_all2 Fuzz_case.equal cases (Util.list_take 6 loaded)))

(* The decoder's positivity checks accept everything the generator
   draws, so corpora and the generated campaigns are unaffected. *)
let test_generated_cases_decode () =
  for seed = 1 to 3 do
    for index = 0 to 499 do
      let case = Fuzz_gen.case_at ~seed ~index () in
      match Fuzz_case.of_json_result (Fuzz_case.to_json case) with
      | Ok back when Fuzz_case.equal case back -> ()
      | Ok _ -> Alcotest.failf "seed %d index %d: round trip changed the case" seed index
      | Error msg -> Alcotest.failf "seed %d index %d: %s" seed index msg
    done
  done

let test_corpus_reports_bad_lines () =
  let path = Filename.temp_file "axi4mlir_corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"engine\": \"v3\"}\nnot json at all\n";
      close_out oc;
      let loaded, errors = Result.get_ok (Fuzz_corpus.load_result path) in
      Alcotest.(check int) "nothing loaded" 0 (List.length loaded);
      Alcotest.(check int) "both lines reported" 2 (List.length errors));
  match Fuzz_corpus.load_result "/nonexistent/corpus.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing corpus file accepted"

(* ------------------------------------------------------------------ *)
(* Perf-counter invariants at the suite level                          *)
(* ------------------------------------------------------------------ *)

let cache_refs_of_native dim =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:dim ~n:dim ~k:dim in
  let counters =
    Axi4mlir.measure bench (fun () -> Cpu_reference.matmul bench.Axi4mlir.soc ~a ~b ~c)
  in
  Perf_counters.cache_references counters

let test_cache_refs_monotone_in_footprint () =
  let refs = List.map cache_refs_of_native [ 8; 16; 32 ] in
  match refs with
  | [ r8; r16; r32 ] ->
    Alcotest.(check bool)
      (Printf.sprintf "refs grow with footprint (%.0f <= %.0f <= %.0f)" r8 r16 r32)
      true
      (r8 < r16 && r16 < r32)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Autotuner differential property                                     *)
(* ------------------------------------------------------------------ *)

let test_tuner_property_campaign () =
  (* small replayable campaign over the tuner's end-to-end guarantee:
     the returned config instantiates, validates, and never loses to
     the heuristic default (Fuzz_tune) *)
  for index = 0 to 7 do
    match Fuzz_tune.check_at ~seed:42 ~index with
    | Fuzz_tune.Pass | Fuzz_tune.Skip _ -> ()
    | Fuzz_tune.Fail reason ->
      Alcotest.fail (Printf.sprintf "tuner case seed=42 index=%d: %s" index reason)
  done

let test_roundtrip_checker_flags_difference () =
  (* sanity for the round-trip law itself: a compiled module passes *)
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 () in
  let bench = Axi4mlir.create accel in
  let m = Axi4mlir.compile_matmul bench ~m:8 ~n:8 ~k:8 () in
  match Fuzz_roundtrip.check ~stage:"test" m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let tests =
  [
    Alcotest.test_case "generation is deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "rng stays in range" `Quick test_rng_ranges;
    Alcotest.test_case "oracle passes known-good cases" `Quick test_oracle_passes_known_good;
    Alcotest.test_case "oracle classifies rejections" `Quick test_oracle_classifies_rejection;
    Alcotest.test_case "oracle passes conv" `Quick test_oracle_conv_passes;
    Alcotest.test_case "small campaign is clean" `Quick test_campaign_all_clean;
    Alcotest.test_case "injected tiling bug is caught and shrunk" `Quick
      test_fault_injection_caught_and_shrunk;
    Alcotest.test_case "shrinker reaches the granule floor" `Quick
      test_shrinker_reaches_fixpoint;
    Alcotest.test_case "corpus round trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus reports bad lines" `Quick test_corpus_reports_bad_lines;
    Alcotest.test_case "generated cases decode" `Quick test_generated_cases_decode;
    Alcotest.test_case "cache refs monotone in footprint" `Quick
      test_cache_refs_monotone_in_footprint;
    Alcotest.test_case "tuner never loses to the heuristic" `Quick
      test_tuner_property_campaign;
    Alcotest.test_case "round-trip checker accepts compiled IR" `Quick
      test_roundtrip_checker_flags_difference;
  ]
