(* The five host-cost workloads.

   A workload is a list of units. A unit's [prepare] is set-up: it
   derives the unit's inputs from the seed and computes its Gold
   reference outputs, so no reference is computed inside a timed pass.
   The body it returns rebuilds everything it touches (SoC, oracle,
   compiled module) on every call, wraps each call into the libraries
   under test in a span named "<layer>.<what>", and returns what it
   observed: the simulated counters and outcomes pinned for the default
   seed, plus the problems found checking its outputs. *)

type ctx = {
  trace : Trace.t;  (* disabled in untraced passes *)
  pass : int;
  mutable unit_id : string;
  counts : (string, float) Hashtbl.t;  (* per-pass work counts, by layer *)
}

let span ctx name f = Spans.with_span ctx.trace ~pass:ctx.pass ~unit_id:ctx.unit_id name f

let count ctx key v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt ctx.counts key) in
  Hashtbl.replace ctx.counts key (prev +. v)

type outcome = {
  obs : (string * string) list;  (* pinned observations, in a fixed order *)
  problems : string list;  (* Gold / twin / invariant violations *)
}

type unit_spec = { id : string; prepare : unit -> ctx -> outcome }

type t = {
  name : string;
  why : string;
  default_passes : int;
  smoke : string list;
      (* ids of cheap units: the first is the set-up's warm-up unit, and
         the smoke test runs them all *)
  units : seed:int -> unit_spec list;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let num v = Printf.sprintf "%.17g" v

let counter_obs prefix c =
  List.map (fun (k, v) -> (prefix ^ k, num v)) (Perf_counters.fields c)

let dma_words (c : Perf_counters.t) = c.dma_words_sent +. c.dma_words_received
let get = function Ok v -> v | Error msg -> failwith msg

(* Operand data: xorshift32 seeds derived from the workload seed and the
   operand's position, never 0. *)
let data_seed ~seed i = 1 + (((seed * 7919) + (i * 104729)) land 0x3FFFFFFF)

let fresh ~seed n =
  let a = Array.make n 0.0 in
  Gold.fill_deterministic ~seed a;
  a

let load bench ~label shape data =
  let v = Axi4mlir.alloc_zero bench ~label shape in
  Memref_view.fill_from v data;
  v

(* Operands are multiples of 2^-15 in [-1, 1), so every product and sum
   here is exact in binary64 whatever the accumulation order. *)
let tolerance = 1e-9

let check_gold ctx ~what gold view =
  span ctx "harness.check" (fun () ->
      let out = Memref_view.to_array view in
      if Array.length out <> Array.length gold then
        [
          Printf.sprintf "%s: %d outputs, Gold has %d" what (Array.length out)
            (Array.length gold);
        ]
      else
        let d = Gold.max_abs_diff gold out in
        if d < tolerance then [] else [ Printf.sprintf "%s: max |diff| vs Gold = %g" what d ])

(* Simulated work: the sim.* totals, and per layer the denominators of
   its host-cost ratios. *)
let note_sim ctx ~layer (c : Perf_counters.t) =
  count ctx "sim.cycles" c.cycles;
  count ctx "sim.dma_words" (dma_words c);
  count ctx "sim.dma_transactions" c.dma_transactions;
  count ctx "sim.cache_refs" (Perf_counters.cache_references c);
  count ctx "sim.accel_busy_cycles" c.accel_busy_cycles;
  count ctx (layer ^ ".sim_instructions") c.instructions;
  count ctx (layer ^ ".dma_words") (dma_words c);
  count ctx (layer ^ ".dma_transactions") c.dma_transactions;
  count ctx (layer ^ ".cache_refs") (Perf_counters.cache_references c)

let note_compile ctx ~accepted stats =
  count ctx "transforms.attempted" 1.0;
  if accepted then count ctx "transforms.accepted" 1.0;
  match List.rev stats with
  | last :: _ -> count ctx "ir.ops_out" (float_of_int last.Pass.st_ops_after)
  | [] -> ()

let compile ctx bench ?options ir =
  let stats = ref [] in
  let m =
    span ctx "transforms.compile" (fun () -> Axi4mlir.compile bench ?options ~stats ir)
  in
  note_compile ctx ~accepted:true !stats;
  m

(* ------------------------------------------------------------------ *)
(* conv_layers: Fig. 16                                                *)
(* ------------------------------------------------------------------ *)

(* One output row at full width and at most [conv_max_oc] output
   channels: per-row and per-channel work is homogeneous, and the cap
   keeps a pass near two seconds so a run holds several passes. *)
let conv_max_oc = 64

let conv_units ~seed i (l : Resnet18.layer) =
  let ic = l.ic and oc = min l.oc conv_max_oc and fh = l.fhw and stride = l.stride in
  let ih = fh and iw = l.ihw in
  let ow = Gold.conv_out iw ~fhw:fh ~stride in
  let data =
    lazy
      (let input = fresh ~seed:(data_seed ~seed (2 * i)) (ic * ih * iw) in
       let filter = fresh ~seed:(data_seed ~seed ((2 * i) + 1)) (oc * ic * fh * fh) in
       (input, filter, Gold.conv2d ~stride ~n:1 ~ic ~ih ~iw ~oc ~fh ~fw:fh input filter))
  in
  let prepare ~manual () =
    let input, filter, gold = Lazy.force data in
    fun ctx ->
      let accel = Presets.conv ~flow:(if manual then "Ws" else "Os") () in
      let bench, i, w, o =
        span ctx "sim.setup" (fun () ->
            let bench = Axi4mlir.create accel in
            ( bench,
              load bench ~label:"I" [ 1; ic; ih; iw ] input,
              load bench ~label:"W" [ oc; ic; fh; fh ] filter,
              Axi4mlir.alloc_zero bench ~label:"O" [ 1; oc; 1; ow ] ))
      in
      let layer, c =
        if manual then
          ( "drivers",
            span ctx "drivers.run" (fun () ->
                Axi4mlir.measure bench (fun () ->
                    Manual_conv.run bench.Axi4mlir.soc accel ~flow:"Rs" ~stride ~input:i
                      ~filter:w ~output:o ())) )
        else begin
          let ir =
            span ctx "ir.build" (fun () ->
                Axi4mlir.build_conv_module ~stride ~n:1 ~ic ~ih ~iw ~oc ~fh ~fw:fh ())
          in
          let compiled = compile ctx bench ir in
          ( "interp",
            span ctx "interp.run" (fun () ->
                Axi4mlir.measure bench (fun () ->
                    Axi4mlir.run_func bench ~copy_strategy:Dma_library.Specialized compiled
                      "conv_call"
                      [ Interp.M i; Interp.M w; Interp.M o ])) )
        end
      in
      note_sim ctx ~layer c;
      { obs = counter_obs "" c; problems = check_gold ctx ~what:"output" gold o }
  in
  [
    { id = l.label ^ "/generated_os"; prepare = prepare ~manual:false };
    { id = l.label ^ "/manual_rs"; prepare = prepare ~manual:true };
  ]

let conv_layers =
  {
    name = "conv_layers";
    why =
      "Fig. 16: 11 ResNet-18 layers, generated Os vs manual Rs driver; simulator-bound, \
       moves with runtime/DMA/conv-engine/cache speed, not compile speed";
    default_passes = 2;
    smoke = [ "56_64_1_128_2/generated_os"; "56_64_1_128_2/manual_rs" ];
    units = (fun ~seed -> List.concat (List.mapi (conv_units ~seed) Resnet18.layers));
  }

(* ------------------------------------------------------------------ *)
(* TinyBERT matmuls: Fig. 17 and its double-buffered variant           *)
(* ------------------------------------------------------------------ *)

let v4_16 () = Presets.matmul ~version:Accel_matmul.V4 ~size:16 ()

type strategy = Ns | Best

let strategy_name = function Ns -> "ns" | Best -> "best"

let codegen ctx accel strategy ~m ~n ~k ~double_buffer =
  let base = { Axi4mlir.default_codegen with double_buffer } in
  match strategy with
  | Ns -> { base with flow = Some "Ns"; tiles = Some [ 16; 16; 16 ] }
  | Best -> (
    match span ctx "heuristics.best" (fun () -> Heuristics.best accel ~m ~n ~k) with
    | Some ch ->
      { base with flow = Some ch.Heuristics.flow; tiles = Some [ ch.tm; ch.tn; ch.tk ] }
    | None -> base)

type mm = {
  m : int;
  n : int;
  k : int;
  a : float array;
  b : float array;
  gold : float array;
}

let mm_data ~seed i ~m ~n ~k =
  let a = fresh ~seed:(data_seed ~seed (2 * i)) (m * k) in
  let b = fresh ~seed:(data_seed ~seed ((2 * i) + 1)) (k * n) in
  { m; n; k; a; b; gold = Gold.matmul ~m ~n ~k a b }

let padded ~seed i (s : Tinybert.matmul_shape) =
  mm_data ~seed i ~m:(Tinybert.pad16 s.m) ~n:(Tinybert.pad16 s.n) ~k:(Tinybert.pad16 s.k)

let mm_setup ctx accel d =
  span ctx "sim.setup" (fun () ->
      let bench = Axi4mlir.create accel in
      ( bench,
        load bench ~label:"A" [ d.m; d.k ] d.a,
        load bench ~label:"B" [ d.k; d.n ] d.b,
        Axi4mlir.alloc_zero bench ~label:"C" [ d.m; d.n ] ))

(* Build, compile and interpret one generated driver. The interpreted
   run is charged to span [run_span]; its simulated work to [layer]. *)
let run_generated ctx ~layer ~run_span strategy ~double_buffer d =
  let accel = v4_16 () in
  let bench, a, b, c = mm_setup ctx accel d in
  let options = codegen ctx accel strategy ~m:d.m ~n:d.n ~k:d.k ~double_buffer in
  let ir =
    span ctx "ir.build" (fun () -> Axi4mlir.build_matmul_module ~m:d.m ~n:d.n ~k:d.k ())
  in
  let compiled = compile ctx bench ~options ir in
  let counters =
    span ctx run_span (fun () ->
        Axi4mlir.measure bench (fun () ->
            Axi4mlir.run_matmul bench ~options compiled ~a ~b ~c))
  in
  note_sim ctx ~layer counters;
  (counters, c)

let matmul_blocking_units ~seed i (s : Tinybert.matmul_shape) =
  let cpu = lazy (mm_data ~seed (2 * i) ~m:s.m ~n:s.n ~k:s.k) in
  let acc = lazy (padded ~seed ((2 * i) + 1) s) in
  let prepare_cpu () =
    let d = Lazy.force cpu in
    fun ctx ->
      let bench, a, b, c = mm_setup ctx (v4_16 ()) d in
      let counters =
        span ctx "drivers.run" (fun () ->
            Axi4mlir.measure bench (fun () ->
                Cpu_reference.matmul_optimized bench.Axi4mlir.soc ~a ~b ~c ~sample_rows:8
                  ()))
      in
      note_sim ctx ~layer:"drivers" counters;
      { obs = counter_obs "" counters; problems = check_gold ctx ~what:"cpu" d.gold c }
  in
  let prepare_generated strategy () =
    let d = Lazy.force acc in
    fun ctx ->
      let counters, c =
        run_generated ctx ~layer:"interp" ~run_span:"interp.run" strategy
          ~double_buffer:false d
      in
      {
        obs = counter_obs "" counters;
        problems = check_gold ctx ~what:(strategy_name strategy) d.gold c;
      }
  in
  [
    { id = s.mm_name ^ "/cpu"; prepare = prepare_cpu };
    { id = s.mm_name ^ "/ns"; prepare = prepare_generated Ns };
    { id = s.mm_name ^ "/best"; prepare = prepare_generated Best };
  ]

let matmul_blocking =
  {
    name = "matmul_blocking";
    why =
      "Fig. 17 at seq 128: six TinyBERT classes under the CPU reference, Ns and Best; \
       interpreter-heavy, plus ~1e8 scalar cache lookups";
    default_passes = 3;
    smoke = [ "attn_scores/cpu"; "attn_scores/ns" ];
    units =
      (fun ~seed ->
        Tinybert.matmul_shapes ~batch:2 ~seq:128
        |> List.mapi (matmul_blocking_units ~seed)
        |> List.concat);
  }

(* Double buffering is a pure schedule change: the async run must match
   its blocking twin bit for bit and move the same DMA words. *)
let matmul_async_units ~seed i (s : Tinybert.matmul_shape) =
  let data = lazy (padded ~seed i s) in
  let prepare strategy () =
    let d = Lazy.force data in
    fun ctx ->
      let twin, twin_c =
        run_generated ctx ~layer:"async.twin" ~run_span:"async.twin_run" strategy
          ~double_buffer:false d
      in
      let async, async_c =
        run_generated ctx ~layer:"async" ~run_span:"async.run" strategy ~double_buffer:true d
      in
      let twin_problems =
        span ctx "harness.check" (fun () ->
            let bits v = Array.map Int64.bits_of_float (Memref_view.to_array v) in
            (if bits async_c = bits twin_c then []
             else [ "double-buffered output differs from its blocking twin" ])
            @
            if dma_words async = dma_words twin then []
            else
              [
                Printf.sprintf "double buffering moved %.0f DMA words, its twin %.0f"
                  (dma_words async) (dma_words twin);
              ])
      in
      {
        obs = counter_obs "async." async @ counter_obs "twin." twin;
        problems = check_gold ctx ~what:"async" d.gold async_c @ twin_problems;
      }
  in
  [
    { id = s.mm_name ^ "/ns"; prepare = prepare Ns };
    { id = s.mm_name ^ "/best"; prepare = prepare Best };
  ]

let matmul_async =
  {
    name = "matmul_async";
    why =
      "the six classes at seq 32 under Ns and Best with double buffering, each beside its \
       blocking twin; the only workload on Timeline and DMA tokens";
    default_passes = 3;
    smoke = [ "attn_scores/ns" ];
    units =
      (fun ~seed ->
        Tinybert.matmul_shapes ~batch:2 ~seq:32
        |> List.mapi (matmul_async_units ~seed)
        |> List.concat);
  }

(* ------------------------------------------------------------------ *)
(* small_kernels: the fuzzer's / tuner's traffic shape                 *)
(* ------------------------------------------------------------------ *)

let small_kernel_cases = 4000

(* The case shapes are drawn once, from a fixed fuzz seed; the run seed
   drives their operand data. Shapes set how much work a case is, so
   drawing them per seed made a pass's allocation differ by 2 % and its
   promotion by 6 % between seeds, more than a regression this benchmark
   must catch. *)
let small_kernel_shape_seed = 1

let small_kernel_unit ~seed index =
  let prepare () =
    let case =
      {
        (Fuzz_gen.case_at ~seed:small_kernel_shape_seed ~index ()) with
        Fuzz_case.data_seed = data_seed ~seed index;
      }
    in
    let ops = Fuzz_oracle.operands_of_case case in
    fun ctx ->
      let host, accel = get (Fuzz_oracle.config_of_case case) in
      let source = span ctx "ir.build" (fun () -> Fuzz_oracle.build_module case) in
      let stats = ref [] in
      match
        span ctx "transforms.compile" (fun () ->
            Pipeline.run_result ~stats (Fuzz_oracle.accel_pipeline host accel case) source)
      with
      | Error _ ->
        note_compile ctx ~accepted:false !stats;
        { obs = [ ("accepted", "0") ]; problems = [] }
      | Ok compiled ->
        note_compile ctx ~accepted:true !stats;
        let parsed =
          span ctx "ir.roundtrip" (fun () ->
              Parser_ir.parse_op (Printer.to_generic compiled))
        in
        let bench, views =
          span ctx "sim.setup" (fun () -> Fuzz_oracle.setup_path host accel case ops)
        in
        let c =
          span ctx "interp.run" (fun () -> Fuzz_oracle.run_module bench case parsed views)
        in
        note_sim ctx ~layer:"interp" c;
        {
          obs = ("accepted", "1") :: counter_obs "" c;
          problems =
            check_gold ctx ~what:"output" ops.Fuzz_oracle.gold
              (Fuzz_oracle.output_view views);
        }
  in
  { id = Printf.sprintf "case%04d" index; prepare }

let small_kernels =
  {
    name = "small_kernels";
    why =
      "4000 fuzz cases, fixed shapes and seeded operands: build, compile, print/parse round \
       trip, interpret; \
       thousands of sub-millisecond evaluations where IR, passes and set-up matter";
    default_passes = 5;
    smoke = [ "case0000"; "case0001" ];
    units = (fun ~seed -> List.init small_kernel_cases (small_kernel_unit ~seed));
  }

(* ------------------------------------------------------------------ *)
(* serve_graph: oracle memo, residency, scheduler, platform search     *)
(* ------------------------------------------------------------------ *)

let freq_mhz = Cost_model.default.Cost_model.cpu_freq_mhz

(* exp_serve's mix on a cold oracle; oracle time is the wrapped service
   and predict closures, so serve.sched is the scheduler's self time. *)
let serve_unit ~seed =
  let specs = [ "tinybert"; "tinybert"; "resnet18/56_64_3_64_1" ] in
  let requests = 48 and accels = 2 in
  let run ctx =
    let models = get (Serve_cost.models_of_specs ~rows:2 ~seq:32 specs) in
    let oracle = Serve_cost.create models in
    let service model ~batch =
      span ctx "serve.oracle" (fun () -> Serve_cost.service oracle model ~batch)
    in
    let predict model =
      span ctx "serve.oracle" (fun () -> Serve_cost.predict oracle model)
    in
    let mean_service =
      List.fold_left (fun acc s -> acc +. service s ~batch:1) 0.0 specs
      /. float_of_int (List.length specs)
    in
    (* offered at twice the accelerators' aggregate capacity *)
    let stream =
      get
        (Serve_request.generate
           {
             Serve_request.st_seed = seed;
             st_count = requests;
             st_mean_gap = mean_service /. (float_of_int accels *. 2.0);
             st_models = specs;
           })
    in
    let per_policy =
      List.map
        (fun policy ->
          let params =
            {
              Serve_sim.sp_accels = accels;
              sp_policy = policy;
              sp_queue_cap = None;
              sp_batch_max = 2;
            }
          in
          let outcome =
            get
              (span ctx "serve.sched" (fun () ->
                   Serve_sim.run ~service ~predict params stream))
          in
          let s = Serve_report.summarize ~freq_mhz policy outcome in
          count ctx "serve.dispatches" (float_of_int s.Serve_report.sm_dispatches);
          let name = Serve_policy.to_string policy in
          ( [
              (name ^ ".completed", string_of_int s.sm_completed);
              (name ^ ".makespan", num s.sm_makespan);
              (name ^ ".p99", num s.sm_latency.Serve_report.d_p99);
            ],
            if s.sm_completed + s.sm_rejected = requests then []
            else [ name ^ ": requests lost" ] ))
        Serve_policy.all
    in
    let hits, misses = Serve_cost.memo_stats oracle in
    count ctx "serve.oracle_hits" (float_of_int hits);
    count ctx "serve.oracle_misses" (float_of_int misses);
    { obs = List.concat_map fst per_policy; problems = List.concat_map snd per_policy }
  in
  { id = "serve/tinybert2_resnet1"; prepare = (fun () -> run) }

let graph_width = 4

let graph_unit ~batch =
  let run ctx =
    let g = span ctx "graph.build" (fun () -> Graph_build.resnet18 ~width:graph_width ()) in
    let exec name residency = span ctx name (fun () -> Graph_exec.run ~batch ~residency g) in
    let base = exec "graph.baseline" false and resd = exec "graph.residency" true in
    let words = Graph_exec.result_dma_words in
    note_sim ctx ~layer:"graph" base.Graph_exec.rs_counters;
    note_sim ctx ~layer:"graph" resd.Graph_exec.rs_counters;
    count ctx "graph.baseline_words" (words base);
    count ctx "graph.residency_words" (words resd);
    {
      obs =
        counter_obs "baseline." base.rs_counters
        @ counter_obs "residency." resd.rs_counters
        @ [ ("skipped_words", string_of_int resd.rs_skipped_words) ];
      problems =
        (if Graph_exec.outputs_equal base resd then []
         else [ "residency changed the outputs" ])
        @ if words resd < words base then [] else [ "residency did not reduce DMA words" ];
    }
  in
  {
    id = Printf.sprintf "graph/resnet18_w%d_b%d" graph_width batch;
    prepare = (fun () -> run);
  }

let platform_unit ~seed =
  let spec = "matmul:16,16,16" in
  let run ctx =
    let models = get (Serve_cost.models_of_specs [ spec ]) in
    let stream =
      get
        (Serve_request.generate
           {
             Serve_request.st_seed = seed;
             st_count = 12;
             st_mean_gap = freq_mhz *. 1e6 /. 1000.0;
             st_models = [ spec ];
           })
    in
    let measure =
      Platform_search.default_measure ~policy:Serve_policy.Fifo ~models ~requests:stream ()
    in
    let outcome =
      get
        (span ctx "platform.search" (fun () ->
             Platform_search.search ~area_budget:800.0 ~measure Platform_search.quick_space))
    in
    count ctx "platform.evaluated" (float_of_int outcome.Platform_search.sr_evaluated);
    let winner =
      match Platform_search.pick_winner outcome with
      | Some w -> Benchdiff.config_hash (Platform_ir.to_json w.Platform_search.pt_platform)
      | None -> "none"
    in
    {
      obs = [ ("winner", winner); ("evaluated", string_of_int outcome.sr_evaluated) ];
      problems = [];
    }
  in
  { id = "platform/quick_space"; prepare = (fun () -> run) }

let serve_graph =
  {
    name = "serve_graph";
    why =
      "exp_serve's mix on a cold oracle under fifo/sjf/batch, ResNet-18 graphs with and \
       without residency, a platform search: oracle memo, DMA elision, scheduler";
    default_passes = 2;
    smoke = [ "platform/quick_space" ];
    units =
      (fun ~seed ->
        [ serve_unit ~seed; graph_unit ~batch:1; graph_unit ~batch:2; platform_unit ~seed ]);
  }

let all = [ conv_layers; matmul_blocking; matmul_async; small_kernels; serve_graph ]
let find name = List.find_opt (fun w -> w.name = name) all
