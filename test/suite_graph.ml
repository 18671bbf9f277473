(* Whole-model graph IR + buffer residency: the region model's
   single-tenant replacement and capacity check, the conv engine's
   residency ISA edge cases, graph validation, the residency
   scheduler's decisions and remarks, executor bit-identity with
   strict DMA-word reduction, the serving oracle's memo table, the
   pinned conv cycles-per-MAC proxy, the QCheck graph-fuzz oracle and
   the axi4mlir-graph-v1 golden artifact. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let err = function
  | Error msg -> msg
  | Ok _ -> Alcotest.fail "expected Error, got Ok"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Residency regions: one tenant, capacity                            *)
(* ------------------------------------------------------------------ *)

let test_region_capacity_exactly_full () =
  let r = Accel_device.make_region ~name:"w" ~capacity_words:64 in
  (* words = capacity succeeds; capacity + 1 is a structured error *)
  ok (Accel_device.region_replace r ~tag:"full" ~words:64);
  check_bool "full tenant resident" true (Accel_device.region_holds r ~tag:"full");
  let msg = err (Accel_device.region_replace r ~tag:"huge" ~words:65) in
  check_bool "oversize error names the capacity" true
    (contains ~affix:"capacity is 64" msg);
  check_bool "the rejected replace keeps the tenant" true
    (Accel_device.region_holds r ~tag:"full");
  check_bool "the rejected tag is not resident" false
    (Accel_device.region_holds r ~tag:"huge")

let test_region_replace_single_tenant () =
  let r = Accel_device.make_region ~name:"act" ~capacity_words:100 in
  check_bool "a fresh region is empty" false (Accel_device.region_holds r ~tag:"A");
  ok (Accel_device.region_replace r ~tag:"A" ~words:30);
  ok (Accel_device.region_replace r ~tag:"Z" ~words:90);
  check_bool "replace displaces the old tenant" false
    (Accel_device.region_holds r ~tag:"A");
  check_bool "sole tenant" true (Accel_device.region_holds r ~tag:"Z");
  Accel_device.region_clear r;
  check_bool "clear empties the region" false (Accel_device.region_holds r ~tag:"Z")

(* ------------------------------------------------------------------ *)
(* Conv engine residency ISA edge cases                               *)
(* ------------------------------------------------------------------ *)

let inst i = Axi_word.Inst i
let data f = Axi_word.Data f
(* One transaction; returns the accelerator cycles it triggered. *)
let consume (dev : Accel_device.t) words =
  let meter = { Accel_device.accel_cycles = 0.0 } in
  dev.Accel_device.consume (Axi_word.of_words words) meter;
  meter.Accel_device.accel_cycles

let configure dev ~fhw ~ic =
  ignore
    (consume dev
       [| inst Isa.reset; inst Isa.cv_set_fhw; inst fhw; inst Isa.cv_set_ic; inst ic |])

let test_device_weights_capacity () =
  (* slice = iC * fHW^2 = exactly the buffer: loads fine and computes *)
  let dev = Accel_conv.create ~capacity_elems:16 () in
  configure dev ~fhw:1 ~ic:16;
  let weights = Array.init 16 (fun i -> data (float_of_int (i + 1))) in
  ignore (consume dev (Array.append [| inst Isa.cv_load_w |] weights));
  let patch = Array.make 16 (data 1.0) in
  ignore (consume dev (Array.append [| inst Isa.cv_patch |] patch));
  ignore (consume dev [| inst Isa.cv_drain |]);
  let out = dev.Accel_device.drain 1 in
  Alcotest.(check (float 1e-9)) "exactly-full slice computes" 136.0 out.(0);
  (* one element over capacity: the load is rejected, not truncated *)
  let dev = Accel_conv.create ~capacity_elems:16 () in
  configure dev ~fhw:1 ~ic:17;
  Alcotest.check_raises "oversize slice fails loudly"
    (Failure "conv accelerator: slice iC=17 fHW=1 exceeds capacity 16") (fun () ->
      ignore
        (consume dev
           (Array.append [| inst Isa.cv_load_w |] (Array.make 17 (data 0.0)))))

let test_device_accept_exact_count () =
  let dev = Accel_conv.create () in
  configure dev ~fhw:1 ~ic:1;
  ignore (consume dev [| inst Isa.cv_load_w; data 2.0 |]);
  List.iter
    (fun v -> ignore (consume dev [| inst Isa.cv_patch; data v |]))
    [ 3.0; 5.0; 7.0 ];
  (* 3 pending elements; accepting a 1x2x2 image (4) must fail *)
  Alcotest.check_raises "accept checks the pending count"
    (Failure "conv accelerator: cv_accept expects exactly 4 pending elements, 3 queued")
    (fun () ->
      ignore
        (consume dev
           [| inst Isa.cv_accept; inst 1; inst 2; inst 2 |]));
  (* accepting exactly 1x1x3 moves them into the resident image... *)
  ignore
    (consume dev [| inst Isa.cv_accept; inst 1; inst 1; inst 3 |]);
  check_int "accept consumes the queue" 0 (dev.Accel_device.available ());
  (* ...and a resident patch reads it back through the same MAC path *)
  ignore
    (consume dev
       [| inst Isa.cv_patch_resident; inst 0; inst 1; inst Isa.cv_drain |]);
  let out = dev.Accel_device.drain 1 in
  Alcotest.(check (float 1e-9)) "resident patch = w * accepted element" 20.0 out.(0)

let test_device_resident_patch_requires_image () =
  let dev = Accel_conv.create () in
  configure dev ~fhw:1 ~ic:1;
  ignore (consume dev [| inst Isa.cv_load_w; data 1.0 |]);
  Alcotest.check_raises "no image, no resident patch"
    (Failure "conv accelerator: cv_patch_resident with no resident image") (fun () ->
      ignore
        (consume dev [| inst Isa.cv_patch_resident; inst 0; inst 0 |]))

(* ------------------------------------------------------------------ *)
(* Graph IR validation and builders                                   *)
(* ------------------------------------------------------------------ *)

let tensor tn_id tn_name tn_kind tn_shape =
  { Graph_ir.tn_id; tn_name; tn_kind; tn_shape }

let node nd_id nd_name nd_op nd_args nd_out =
  { Graph_ir.nd_id; nd_name; nd_op; nd_args; nd_out }

let test_validate_rejects_bad_graphs () =
  (* inner-dimension mismatch: a[4,8] @ b[7,4] *)
  let bad_matmul =
    {
      Graph_ir.g_name = "bad";
      g_tensors =
        [|
          tensor 0 "a" Graph_ir.Input [ 4; 8 ];
          tensor 1 "b" Graph_ir.Weights [ 7; 4 ];
          tensor 2 "c" Graph_ir.Activation [ 4; 4 ];
        |];
      g_nodes = [| node 0 "mm" Graph_ir.Matmul [ 0; 1 ] 2 |];
      g_outputs = [ 2 ];
    }
  in
  check_bool "matmul inner-dim mismatch is rejected" true
    (Result.is_error (Graph_ir.validate bad_matmul));
  (* an activation consumed before any node produces it *)
  let unproduced =
    {
      Graph_ir.g_name = "bad";
      g_tensors =
        [|
          tensor 0 "a" Graph_ir.Input [ 4; 4 ];
          tensor 1 "b" Graph_ir.Weights [ 4; 4 ];
          tensor 2 "phantom" Graph_ir.Activation [ 4; 4 ];
          tensor 3 "c" Graph_ir.Activation [ 4; 4 ];
        |];
      g_nodes = [| node 0 "mm" Graph_ir.Matmul [ 2; 1 ] 3 |];
      g_outputs = [ 3 ];
    }
  in
  check_bool "consuming an unproduced activation is rejected" true
    (Result.is_error (Graph_ir.validate unproduced));
  (* a graph output no node produces *)
  let dangling =
    {
      Graph_ir.g_name = "bad";
      g_tensors =
        [|
          tensor 0 "a" Graph_ir.Input [ 4; 4 ];
          tensor 1 "b" Graph_ir.Weights [ 4; 4 ];
          tensor 2 "c" Graph_ir.Activation [ 4; 4 ];
          tensor 3 "never" Graph_ir.Activation [ 4; 4 ];
        |];
      g_nodes = [| node 0 "mm" Graph_ir.Matmul [ 0; 1 ] 2 |];
      g_outputs = [ 3 ];
    }
  in
  check_bool "unproduced graph output is rejected" true
    (Result.is_error (Graph_ir.validate dangling))

let conv_nodes g =
  Array.to_list g.Graph_ir.g_nodes
  |> List.filter (fun nd ->
         match nd.Graph_ir.nd_op with Graph_ir.Conv _ -> true | _ -> false)

let test_resnet18_structure () =
  let g = Graph_build.resnet18 ~width:2 () in
  Alcotest.(check unit) "builder output validates" () (ok (Graph_ir.validate g));
  check_int "20 convolutions" 20 (List.length (conv_nodes g));
  (match Graph_ir.engine_kind g with
  | Ok `Conv -> ()
  | _ -> Alcotest.fail "resnet18 must target the conv engine");
  check_bool "MAC count is positive" true (Graph_ir.macs g > 0);
  (* width scales the stem's output channels *)
  let stem = List.hd (conv_nodes g) in
  (match (Graph_ir.conv_dims g stem).Graph_ir.cd_oc with
  | 2 -> ()
  | oc -> Alcotest.failf "stem width: expected 2 channels, got %d" oc);
  let bert = Graph_build.tinybert ~seq:16 ~layers:2 () in
  (match Graph_ir.engine_kind bert with
  | Ok `Matmul -> ()
  | _ -> Alcotest.fail "tinybert must target the matmul engine");
  let matmuls =
    Array.to_list bert.Graph_ir.g_nodes
    |> List.filter (fun nd -> nd.Graph_ir.nd_op = Graph_ir.Matmul)
  in
  check_int "8 matmuls per transformer layer" 16 (List.length matmuls)

let test_of_name () =
  (match Graph_build.of_name ~width:4 "resnet18" with
  | Ok g -> check_string "resnet18 resolves (width in the name)" "resnet18-w4"
              g.Graph_ir.g_name
  | Error msg -> Alcotest.fail msg);
  let msg = err (Graph_build.of_name ~width:4 "nosuch") in
  check_bool "unknown model error names the model" true
    (contains ~affix:"unknown graph model" msg)

(* ------------------------------------------------------------------ *)
(* Residency scheduler: decisions, remarks, metrics                   *)
(* ------------------------------------------------------------------ *)

let test_schedule_decisions () =
  let g = Graph_build.resnet18 ~width:2 () in
  let device = Accel_conv.create () in
  let p1 = Graph_residency.schedule ~batch:1 ~device g in
  check_int "batch 1: all 8 block edges chain" 8 (Graph_residency.chained_edges p1);
  check_int "batch 1: no weight-stationary nodes" 0
    (Graph_residency.stationary_nodes p1);
  let device = Accel_conv.create () in
  let p2 = Graph_residency.schedule ~batch:2 ~device g in
  check_int "batch 2: every conv goes weight-stationary" 20
    (Graph_residency.stationary_nodes p2);
  check_int "batch 2: no chaining" 0 (Graph_residency.chained_edges p2);
  (* the per-kernel baseline plan elides nothing *)
  let b = Graph_residency.baseline ~batch:1 g in
  check_int "baseline: no chains" 0 (Graph_residency.chained_edges b);
  check_int "baseline: all accelerated nodes fall back" 20
    (Graph_residency.fallback_nodes g b)

let test_schedule_remarks_and_metrics () =
  Remarks.enable ();
  Metrics.enable Metrics.default;
  Metrics.reset Metrics.default;
  let g = Graph_build.resnet18 ~width:2 () in
  ignore (Graph_residency.schedule ~batch:1 ~device:(Accel_conv.create ()) g);
  let all = Remarks.all () in
  check_bool "scheduler emits remarks" true (List.length all > 0);
  List.iter
    (fun r ->
      check_string "every remark is under the graph-residency pass"
        Graph_residency.pass_name r.Remarks.r_pass)
    all;
  check_bool "chained edges emit Applied remarks" true
    (Remarks.count Remarks.Applied >= 8);
  Alcotest.(check (float 0.0)) "graph.chained_edges counter" 8.0
    (Metrics.counter_value "graph.chained_edges");
  Alcotest.(check (float 0.0)) "graph.nodes counter"
    (float_of_int (Array.length g.Graph_ir.g_nodes))
    (Metrics.counter_value "graph.nodes");
  (* batch > 1 blocks every chain candidate: each emits a Missed remark *)
  ignore (Graph_residency.schedule ~batch:2 ~device:(Accel_conv.create ()) g);
  check_bool "blocked opportunities emit Missed remarks" true
    (Remarks.count Remarks.Missed >= 8);
  Metrics.disable Metrics.default;
  Remarks.disable ()

(* ------------------------------------------------------------------ *)
(* Executor: bit-identity and strict DMA-word reduction               *)
(* ------------------------------------------------------------------ *)

let test_exec_chaining_batch1 () =
  let g = Graph_build.resnet18 ~width:2 () in
  let base = Graph_exec.run ~batch:1 ~residency:false g in
  let resd = Graph_exec.run ~batch:1 ~residency:true g in
  check_bool "residency is bit-identical" true (Graph_exec.outputs_equal base resd);
  check_bool "residency moves strictly fewer DMA words" true
    (Graph_exec.result_dma_words resd < Graph_exec.result_dma_words base);
  check_bool "elided words are accounted" true (resd.Graph_exec.rs_skipped_words > 0);
  check_int "8 chained edges executed" 8
    (Graph_residency.chained_edges resd.Graph_exec.rs_plan)

let test_exec_stationary_batch2 () =
  let g = Graph_build.resnet18 ~width:2 () in
  let base = Graph_exec.run ~batch:2 ~residency:false g in
  let resd = Graph_exec.run ~batch:2 ~residency:true g in
  check_bool "batched residency is bit-identical" true
    (Graph_exec.outputs_equal base resd);
  check_bool "weight-stationary moves strictly fewer DMA words" true
    (Graph_exec.result_dma_words resd < Graph_exec.result_dma_words base);
  check_int "all 20 convs executed weight-stationary" 20
    (Graph_residency.stationary_nodes resd.Graph_exec.rs_plan)

(* Two convolutions with identical shapes but different weight tensors:
   the residency tags carry the weight tensor id ("w<id>/f<f>"), so the
   second conv can never hit the first one's resident slices. A tag
   collision would make conv2 compute with conv1's weights and break
   bit-identity against the baseline. *)
let test_same_shape_different_weights () =
  let g =
    {
      Graph_ir.g_name = "twins";
      g_tensors =
        [|
          tensor 0 "img" Graph_ir.Input [ 2; 8; 8 ];
          tensor 1 "w1" Graph_ir.Weights [ 2; 2; 3; 3 ];
          tensor 2 "mid" Graph_ir.Activation [ 2; 6; 6 ];
          tensor 3 "pad" Graph_ir.Activation [ 2; 8; 8 ];
          tensor 4 "w2" Graph_ir.Weights [ 2; 2; 3; 3 ];
          tensor 5 "out" Graph_ir.Activation [ 2; 6; 6 ];
        |];
      g_nodes =
        [|
          node 0 "conv1" (Graph_ir.Conv { stride = 1 }) [ 0; 1 ] 2;
          node 1 "pad" Graph_ir.Resize [ 2 ] 3;
          node 2 "conv2" (Graph_ir.Conv { stride = 1 }) [ 3; 4 ] 5;
        |];
      g_outputs = [ 5 ];
    }
  in
  Alcotest.(check unit) "twin graph validates" () (ok (Graph_ir.validate g));
  let base = Graph_exec.run ~batch:2 ~residency:false g in
  let resd = Graph_exec.run ~batch:2 ~residency:true g in
  check_int "both convs planned stationary" 2
    (Graph_residency.stationary_nodes resd.Graph_exec.rs_plan);
  check_bool "same-shape weights do not cross-hit" true
    (Graph_exec.outputs_equal base resd);
  (* stationary reuse genuinely removes per-image slice re-sends *)
  check_bool "reuse still moves strictly fewer words" true
    (Graph_exec.result_dma_words resd < Graph_exec.result_dma_words base)

(* Deep tinybert stacks saturate to inf/nan (attention squares the
   activation magnitude every layer). The bit-identity gate must still
   hold there: structural [=] reports [nan <> nan] on identical bytes,
   which once made an all-fallback residency run "fail" verification.
   This pins the IEEE-754 bit-pattern comparison. *)
let test_bit_identity_nonfinite () =
  let g = Graph_build.tinybert ~seq:32 ~layers:4 () in
  let base = Graph_exec.run ~residency:false g in
  let resd = Graph_exec.run ~residency:true g in
  let nonfinite r =
    List.exists
      (fun (_, imgs) ->
        Array.exists
          (fun (a : float array) ->
            Array.exists (fun v -> not (Float.is_finite v)) a)
          imgs)
      r.Graph_exec.rs_outputs
  in
  check_bool "outputs saturate to non-finite values" true (nonfinite base);
  check_bool "non-finite outputs still compare bit-identical" true
    (Graph_exec.outputs_equal base resd)

(* ------------------------------------------------------------------ *)
(* QCheck: the graph-fuzz oracle over random conv-chain graphs        *)
(* ------------------------------------------------------------------ *)

let prop_graph_oracle =
  QCheck.Test.make
    ~name:"fuzz: residency bit-identical and strictly cheaper on random graphs"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      match Fuzz_graph.check (Fuzz_graph.generate ~seed) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Serving-oracle memoisation                                         *)
(* ------------------------------------------------------------------ *)

let test_serve_memo () =
  let oracle =
    Serve_cost.create (ok (Serve_cost.models_of_specs [ "matmul:16,16,16" ]))
  in
  check_int "fresh oracle: no hits" 0 (fst (Serve_cost.memo_stats oracle));
  let c1 = Serve_cost.service oracle "matmul:16,16,16" ~batch:1 in
  let c2 = Serve_cost.service oracle "matmul:16,16,16" ~batch:1 in
  Alcotest.(check (float 0.0)) "memoised result is identical" c1 c2;
  let hits, misses = Serve_cost.memo_stats oracle in
  check_int "second call hits" 1 hits;
  check_int "first call misses" 1 misses;
  (* a different batch is a different canonical key *)
  ignore (Serve_cost.service oracle "matmul:16,16,16" ~batch:2);
  let _, misses = Serve_cost.memo_stats oracle in
  check_int "batch is part of the key" 2 misses

let test_serve_graph_model_memo () =
  let g = Graph_build.resnet18 ~width:2 () in
  let oracle = Serve_cost.create ~graphs:[ ("resnet18", g) ] [] in
  Alcotest.(check (list string)) "graph models are listed" [ "resnet18" ]
    (Serve_cost.models oracle);
  let c1 = Serve_cost.service oracle "resnet18" ~batch:1 in
  let c2 = Serve_cost.service oracle "resnet18" ~batch:1 in
  Alcotest.(check (float 0.0)) "whole-model cost memoised" c1 c2;
  check_bool "a forward pass costs cycles" true (c1 > 0.0);
  let hits, _ = Serve_cost.memo_stats oracle in
  check_int "graph service hit" 1 hits;
  check_bool "prediction is positive and cheap" true
    (Serve_cost.predict oracle "resnet18" > 0.0)

(* ------------------------------------------------------------------ *)
(* The pinned conv cycles-per-MAC proxy                               *)
(* ------------------------------------------------------------------ *)

let test_conv_proxy_calibration () =
  (* The constant is part of the serving oracle's and graph scheduler's
     contract: assert it exactly so drift is an explicit decision. *)
  Alcotest.(check (float 0.0)) "conv_cycles_per_mac is pinned" 16.0
    Heuristics.conv_cycles_per_mac;
  (* ...and it must stay calibrated: the measured pipeline on a
     ResNet-18-sized layer within a factor of two of the proxy. *)
  let ic = 16 and ihw = 9 and oc = 16 and fhw = 3 in
  let w = Tune_workload.Conv { ic; ih = ihw; iw = ihw; oc; fhw; stride = 1 } in
  let bench = Axi4mlir.create (Presets.conv ~flow:"Os" ()) in
  let i, w_, o =
    Axi4mlir.alloc_conv_operands bench ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw
  in
  let ir = Axi4mlir.build_conv_module ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw () in
  let compiled = Axi4mlir.compile bench ir in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_conv bench compiled ~i ~w:w_ ~o)
  in
  let estimate = Heuristics.estimate_conv_cycles ~macs:(Tune_workload.macs w) in
  let ratio = counters.Perf_counters.cycles /. estimate in
  if ratio < 0.5 || ratio > 2.0 then
    Alcotest.failf
      "conv proxy drifted: measured %.0f cycles vs estimate %.0f (ratio %.2f)"
      counters.Perf_counters.cycles estimate ratio

(* ------------------------------------------------------------------ *)
(* The axi4mlir-graph-v1 golden artifact                              *)
(* ------------------------------------------------------------------ *)

let read_golden path =
  let ic = open_in_bin (Filename.concat "golden" path) in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  golden

(* Regenerate (after an intentional schema or cost-model change) with:
     dune exec bin/axi4mlir_run.exe -- --graph resnet18 --width 2 \
       --residency --graph-json test/golden/graph_resnet18.json *)
let test_golden_graph_artifact () =
  let g = Graph_build.resnet18 ~width:2 () in
  let r = Graph_exec.run ~batch:1 ~residency:true g in
  check_string "graph artifact matches the golden file"
    (read_golden "graph_resnet18.json") (Graph_report.render r);
  (* graph-v1 schema floor: add-only fields that must stay *)
  let doc = Graph_report.to_json r in
  check_string "schema string" "axi4mlir-graph-v1" Json.(to_str (member "schema" doc));
  List.iter
    (fun field ->
      check_bool (Printf.sprintf "top-level field %S present" field) true
        (Json.member field doc <> Json.Null))
    [ "model"; "batch"; "residency"; "graph"; "plan"; "totals"; "nodes" ];
  let totals = Json.member "totals" doc in
  List.iter
    (fun field ->
      check_bool (Printf.sprintf "totals field %S present" field) true
        (Json.member field totals <> Json.Null))
    [
      "cycles";
      "dma_transactions";
      "dma_words_sent";
      "dma_words_received";
      "dma_words_skipped";
      "macs";
    ]

let tests =
  [
    Alcotest.test_case "region: capacity exactly full" `Quick
      test_region_capacity_exactly_full;
    Alcotest.test_case "region: single-tenant replace" `Quick
      test_region_replace_single_tenant;
    Alcotest.test_case "device: weight slice capacity-exactly-full" `Quick
      test_device_weights_capacity;
    Alcotest.test_case "device: cv_accept requires the exact pending count" `Quick
      test_device_accept_exact_count;
    Alcotest.test_case "device: resident patch requires an image" `Quick
      test_device_resident_patch_requires_image;
    Alcotest.test_case "ir: validate rejects malformed graphs" `Quick
      test_validate_rejects_bad_graphs;
    Alcotest.test_case "ir: resnet18/tinybert structure" `Quick test_resnet18_structure;
    Alcotest.test_case "ir: of_name resolution" `Quick test_of_name;
    Alcotest.test_case "schedule: chaining and stationary decisions" `Quick
      test_schedule_decisions;
    Alcotest.test_case "schedule: remarks and metrics" `Quick
      test_schedule_remarks_and_metrics;
    Alcotest.test_case "exec: batch-1 chaining is bit-identical and cheaper" `Quick
      test_exec_chaining_batch1;
    Alcotest.test_case "exec: batch-2 weight-stationary is bit-identical and cheaper"
      `Quick test_exec_stationary_batch2;
    Alcotest.test_case "exec: same-shape different-weights never cross-hit" `Quick
      test_same_shape_different_weights;
    Alcotest.test_case "exec: bit-identity survives non-finite outputs" `Quick
      test_bit_identity_nonfinite;
    QCheck_alcotest.to_alcotest prop_graph_oracle;
    Alcotest.test_case "serve: memo keyed on shape, config and batch" `Quick
      test_serve_memo;
    Alcotest.test_case "serve: whole-model graph costing memoised" `Quick
      test_serve_graph_model_memo;
    Alcotest.test_case "heuristics: conv-proxy-calibration" `Quick
      test_conv_proxy_calibration;
    Alcotest.test_case "report: golden graph_resnet18.json artifact" `Quick
      test_golden_graph_artifact;
  ]
