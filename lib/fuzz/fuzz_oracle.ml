(* The differential oracle.

   Each case is executed three ways on fresh simulated SoCs over the
   same deterministic operand data:

     1. the native CPU reference driver;
     2. the mlir_CPU lowering (lower_linalg_to_loops) interpreted;
     3. the full AXI4MLIR pipeline (match-annotate -> tiling ->
        accel codegen [-> runtime lowering]) driven on the simulated
        accelerator.

   All three must agree element-wise with the pure arithmetic oracle
   (Gold); the accelerated run must additionally satisfy performance-
   counter sanity invariants, and every module the compiler produced
   must survive a print -> parse round trip. A configuration the
   pipeline declines with a structured reason is a [Rejected] outcome,
   which is legal; anything else that is not a clean pass is a bug. *)

type failure =
  | Mismatch of { path : string; max_diff : float }
  | Crash of { path : string; message : string }
  | Invariant of string
  | Roundtrip of string

type outcome = Pass | Rejected of string | Failed of failure list

let failure_to_string = function
  | Mismatch { path; max_diff } ->
    Printf.sprintf "mismatch on %s path (max |diff| = %g)" path max_diff
  | Crash { path; message } -> Printf.sprintf "crash on %s path: %s" path message
  | Invariant msg -> "invariant violated: " ^ msg
  | Roundtrip msg -> "round-trip failure: " ^ msg

let outcome_to_string = function
  | Pass -> "pass"
  | Rejected reason -> "rejected: " ^ reason
  | Failed fs ->
    Printf.sprintf "FAILED (%s)" (String.concat "; " (List.map failure_to_string fs))

let tolerance = 1e-9

(* ------------------------------------------------------------------ *)
(* Configuration and operand data                                      *)
(* ------------------------------------------------------------------ *)

let config_of_case (case : Fuzz_case.t) =
  match
    match case.engine with
    | "conv" -> Presets.conv ~flow:case.flow ()
    | name -> (
      match Accel_matmul.version_of_string name with
      | Some version -> Presets.matmul ~version ~size:case.size ~flow:case.flow ()
      | None -> failwith (Printf.sprintf "unknown engine %s" name))
  with
  | accel ->
    let dma =
      {
        accel.Accel_config.dma with
        Accel_config.input_buffer_size = case.dma_buffer_bytes;
        output_buffer_size = case.dma_buffer_bytes;
      }
    in
    Ok (Host_config.pynq_z2, { accel with Accel_config.dma })
  | exception Failure msg -> Error msg

let fresh_array ~seed n =
  let data = Array.make n 0.0 in
  Gold.fill_deterministic ~seed data;
  data

(* Pure operand data: every execution path copies from these arrays, so
   all paths see bit-identical inputs. *)
type operands = { inputs : float array list; init_out : float array; gold : float array }

let operands_of_case (case : Fuzz_case.t) =
  match case.workload with
  | Fuzz_case.Matmul { m; n; k } ->
    let a = fresh_array ~seed:case.data_seed (m * k) in
    let b = fresh_array ~seed:(case.data_seed + 1) (k * n) in
    let c0 =
      if case.init_c then fresh_array ~seed:(case.data_seed + 2) (m * n)
      else Array.make (m * n) 0.0
    in
    let gold = Array.copy c0 in
    Gold.matmul_acc ~m ~n ~k a b gold;
    { inputs = [ a; b ]; init_out = c0; gold }
  | Fuzz_case.Conv { ic; ihw; oc; fhw; stride } ->
    let i = fresh_array ~seed:case.data_seed (ic * ihw * ihw) in
    let w = fresh_array ~seed:(case.data_seed + 1) (oc * ic * fhw * fhw) in
    let oh = Gold.conv_out ihw ~fhw ~stride in
    let init_out = Array.make (oc * oh * oh) 0.0 in
    let gold = Gold.conv2d ~stride ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw i w in
    { inputs = [ i; w ]; init_out; gold }

let build_module (case : Fuzz_case.t) =
  match case.workload with
  | Fuzz_case.Matmul { m; n; k } -> Axi4mlir.build_matmul_module ~m ~n ~k ()
  | Fuzz_case.Conv { ic; ihw; oc; fhw; stride } ->
    Axi4mlir.build_conv_module ~stride ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw ()

let alloc_filled bench ~label shape data =
  let view = Axi4mlir.alloc_zero bench ~label shape in
  Memref_view.fill_from view data;
  view

(* Fresh SoC + operand views for one execution path. *)
let setup_path host accel (case : Fuzz_case.t) ops =
  let bench = Axi4mlir.create ~host accel in
  let views =
    match (case.workload, ops.inputs) with
    | Fuzz_case.Matmul { m; n; k }, [ a; b ] ->
      [
        alloc_filled bench ~label:"A" [ m; k ] a;
        alloc_filled bench ~label:"B" [ k; n ] b;
        alloc_filled bench ~label:"C" [ m; n ] ops.init_out;
      ]
    | Fuzz_case.Conv { ic; ihw; oc; fhw; stride }, [ i; w ] ->
      let oh = Gold.conv_out ihw ~fhw ~stride in
      [
        alloc_filled bench ~label:"I" [ 1; ic; ihw; ihw ] i;
        alloc_filled bench ~label:"W" [ oc; ic; fhw; fhw ] w;
        alloc_filled bench ~label:"O" [ 1; oc; oh; oh ] ops.init_out;
      ]
    | _ -> invalid_arg "Fuzz_oracle: malformed operands"
  in
  (bench, views)

let output_view views = List.nth views (List.length views - 1)

let guard ~path f =
  match f () with
  | v -> Ok v
  | exception Interp.Runtime_error msg ->
    Error (Crash { path; message = "interpreter: " ^ msg })
  | exception Failure msg -> Error (Crash { path; message = msg })
  | exception Invalid_argument msg -> Error (Crash { path; message = msg })

(* ------------------------------------------------------------------ *)
(* Performance-counter sanity invariants                               *)
(* ------------------------------------------------------------------ *)

let check_invariants (case : Fuzz_case.t) (c : Perf_counters.t) =
  let problems = ref [] in
  let require cond msg = if not cond then problems := msg :: !problems in
  require (c.Perf_counters.cycles > 0.0) "accel run reported zero cycles";
  require
    (c.Perf_counters.accel_busy_cycles > 0.0)
    "accel run never kept the accelerator busy";
  require (c.Perf_counters.dma_transactions >= 1.0) "accel run issued no DMA transactions";
  require
    (c.Perf_counters.l1_misses <= c.Perf_counters.l1_accesses)
    "more L1 misses than L1 accesses";
  require
    (c.Perf_counters.l2_misses <= c.Perf_counters.l2_accesses)
    "more L2 misses than L2 accesses";
  (* Every input element must cross the DMA at least once, and the full
     output must come back, whatever the stationarity choice. *)
  (match case.workload with
  | Fuzz_case.Matmul { m; n; k } ->
    require
      (c.Perf_counters.dma_words_sent >= float_of_int ((m * k) + (k * n)))
      "DMA sent fewer words than the A and B payloads";
    require
      (c.Perf_counters.dma_words_received >= float_of_int (m * n))
      "DMA received fewer words than the C payload"
  | Fuzz_case.Conv { ic; ihw; oc; fhw; stride } ->
    let oh = Gold.conv_out ihw ~fhw ~stride in
    require
      (c.Perf_counters.dma_words_sent >= float_of_int (oc * ic * fhw * fhw))
      "DMA sent fewer words than the filter payload";
    require
      (c.Perf_counters.dma_words_received >= float_of_int (oc * oh * oh))
      "DMA received fewer words than the output payload");
  List.rev_map (fun msg -> Invariant msg) !problems

(* ------------------------------------------------------------------ *)
(* The three execution paths                                           *)
(* ------------------------------------------------------------------ *)

let run_native host accel case ops =
  guard ~path:"native-cpu" (fun () ->
      let bench, views = setup_path host accel case ops in
      let counters =
        Axi4mlir.measure bench (fun () ->
            match (case.Fuzz_case.workload, views) with
            | Fuzz_case.Matmul _, [ a; b; c ] -> Cpu_reference.matmul bench.Axi4mlir.soc ~a ~b ~c
            | Fuzz_case.Conv { stride; _ }, [ input; filter; output ] ->
              Cpu_reference.conv2d ~stride bench.Axi4mlir.soc ~input ~filter ~output
            | _ -> invalid_arg "Fuzz_oracle: malformed views")
      in
      (Memref_view.to_array (output_view views), counters))

let interp_strategy (case : Fuzz_case.t) =
  if case.copy_specialization then Dma_library.Specialized else Dma_library.Generic

let run_module bench case m views =
  let interp = Interp.create ~copy_strategy:(interp_strategy case) bench.Axi4mlir.soc m in
  let name = Axi4mlir.sole_func_name m in
  let args = List.map (fun v -> Interp.M v) views in
  let counters =
    Axi4mlir.measure bench (fun () ->
        match Interp.try_invoke interp name args with
        | Ok _ -> ()
        | Error msg -> failwith msg)
  in
  counters

let run_cpu_lowered host accel case ops =
  guard ~path:"cpu-lowered" (fun () ->
      let m = Axi4mlir.compile_cpu (build_module case) in
      let bench, views = setup_path host accel case ops in
      let counters = run_module bench case m views in
      (Memref_view.to_array (output_view views), counters, m))

(* The case's flow is already the config's selected flow. *)
let accel_pipeline host accel (case : Fuzz_case.t) =
  Pipeline.make ~accel ~host
    ~options:
      {
        Codegen_options.flow = None;
        tiles = case.tiles;
        cpu_tiling = case.cpu_tiling;
        copy_specialization = case.copy_specialization;
        coalesce_transfers = case.coalesce_transfers;
        double_buffer = case.double_buffer;
        to_runtime_calls = case.to_runtime_calls;
      }
    ()

(* The metrics registry mirrors the DMA engine's perf-counter bumps
   (see Dma_engine); over a measured run the totals must agree exactly,
   or the two observability surfaces have drifted apart. *)
let metrics_parity (c : Perf_counters.t) =
  let pairs =
    [
      ("sim.dma_transactions", c.Perf_counters.dma_transactions);
      ("sim.dma_words_sent", c.Perf_counters.dma_words_sent);
      ("sim.dma_words_received", c.Perf_counters.dma_words_received);
      ("sim.accel_busy_cycles", c.Perf_counters.accel_busy_cycles);
    ]
  in
  List.filter_map
    (fun (name, field) ->
      let total = Metrics.total name in
      if Float.abs (total -. field) > 1e-6 *. Float.max 1.0 (Float.abs field) then
        Some
          (Invariant
             (Printf.sprintf
                "metrics registry total %s (%g) disagrees with the perf counter (%g)"
                name total field))
      else None)
    pairs

(* Critical-path exactness: every measured accelerated run's event DAG
   must analyze cleanly — the backward walk covers [0, makespan]
   contiguously, the attribution sums to the makespan (both checked
   inside [analyze]), and the path length is exactly the task clock the
   run reported. Holds for blocking and double-buffered schedules
   alike. *)
let critpath_property ~path (bench : Axi4mlir.t) (c : Perf_counters.t) =
  match Critpath.analyze (Soc.critpath_input bench.Axi4mlir.soc) with
  | Error msg -> [ Invariant (Printf.sprintf "critpath (%s): %s" path msg) ]
  | Ok report ->
    let problems = ref [] in
    let require cond msg = if not cond then problems := Invariant msg :: !problems in
    require
      (report.Critpath.rp_makespan = c.Perf_counters.cycles)
      (Printf.sprintf
         "critpath (%s): path makespan %.17g differs from the reported task clock %.17g"
         path report.Critpath.rp_makespan c.Perf_counters.cycles);
    let attributed =
      List.fold_left (fun acc (_, cy) -> acc +. cy) 0.0 report.Critpath.rp_attribution
    in
    require
      (Float.abs (attributed -. report.Critpath.rp_makespan)
      <= 1e-6 *. Float.max 1.0 report.Critpath.rp_makespan)
      (Printf.sprintf "critpath (%s): attribution sums to %.17g, not the makespan %.17g"
         path attributed report.Critpath.rp_makespan);
    List.rev !problems

(* Every token a run starts must be waited before it ends: a leaked
   token is a double-buffer codegen bug that no counter shows (its
   transfer is charged at start time either way). *)
let leaked_tokens bench =
  List.filter_map
    (fun (id, engine) ->
      match Dma_engine.outstanding_tokens engine with
      | [] -> None
      | toks ->
        Some
          (Invariant
             (Printf.sprintf "dma%d: %d token(s) never waited" id (List.length toks))))
    bench.Axi4mlir.soc.Soc.engines

let run_accel host accel case ops compiled =
  guard ~path:"accel" (fun () ->
      let bench, views = setup_path host accel case ops in
      (* Enable and reset the registry for the measured run so its
         totals cover exactly what the perf counters cover ([measure]
         zeroes the counters when the thunk starts). *)
      let was_enabled = Metrics.enabled Metrics.default in
      Metrics.enable Metrics.default;
      Metrics.reset Metrics.default;
      let counters = run_module bench case compiled views in
      let parity =
        metrics_parity counters
        @ critpath_property ~path:"accel" bench counters
        @ leaked_tokens bench
      in
      if not was_enabled then Metrics.disable Metrics.default;
      (Memref_view.to_array (output_view views), counters, parity))

(* Double-buffering differential twin: when a case enables async
   double buffering, recompile and re-run it with the feature off on a
   fresh SoC. Pipelining is a pure schedule change, so the async run
   must produce bit-identical output bytes, move exactly the same
   number of DMA words in total, and never report a longer task clock
   than its blocking twin. *)
let check_double_buffer_twin host accel (case : Fuzz_case.t) ops ~async_output
    ~async_counters =
  let blocking = { case with Fuzz_case.double_buffer = false } in
  match Pipeline.run_result (accel_pipeline host accel blocking) (build_module case) with
  | Error _ -> [] (* the blocking twin was rejected: nothing to compare *)
  | exception Failure msg -> [ Crash { path = "blocking-twin-compile"; message = msg } ]
  | Ok compiled -> (
    let run =
      guard ~path:"blocking-twin" (fun () ->
          let bench, views = setup_path host accel blocking ops in
          let counters = run_module bench blocking compiled views in
          (Memref_view.to_array (output_view views), counters,
           critpath_property ~path:"blocking-twin" bench counters))
    in
    match run with
    | Error f -> [ f ]
    | Ok (blocking_output, bc, twin_critpath) ->
      let problems = ref (List.rev twin_critpath) in
      let require cond msg = if not cond then problems := Invariant msg :: !problems in
      require
        (async_output = blocking_output)
        "double-buffered output differs from the blocking twin";
      let total_words (c : Perf_counters.t) =
        c.Perf_counters.dma_words_sent +. c.Perf_counters.dma_words_received
      in
      require
        (total_words async_counters = total_words bc)
        (Printf.sprintf
           "double buffering changed total DMA traffic (%.0f words async vs %.0f blocking)"
           (total_words async_counters) (total_words bc));
      require
        (async_counters.Perf_counters.cycles <= bc.Perf_counters.cycles)
        (Printf.sprintf
           "double buffering slowed the task clock (%.1f cycles async vs %.1f blocking)"
           async_counters.Perf_counters.cycles bc.Perf_counters.cycles);
      List.rev !problems)

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

let compare_output ~path gold output =
  if Array.length gold <> Array.length output then
    [ Mismatch { path; max_diff = infinity } ]
  else
    let diff = Gold.max_abs_diff gold output in
    if diff < tolerance then [] else [ Mismatch { path; max_diff = diff } ]

let roundtrip ~stage m =
  match Fuzz_roundtrip.check ~stage m with Ok () -> [] | Error msg -> [ Roundtrip msg ]

let run (case : Fuzz_case.t) =
  match config_of_case case with
  | Error reason -> Rejected ("configuration: " ^ reason)
  | Ok (host, accel) -> (
    let ops = operands_of_case case in
    let failures = ref [] in
    let add fs = failures := !failures @ fs in
    (* source module must round-trip before any lowering *)
    let source = build_module case in
    add (roundtrip ~stage:"linalg" source);
    (* path 1: native CPU reference *)
    let native =
      match run_native host accel case ops with
      | Ok (output, counters) ->
        add (compare_output ~path:"native-cpu" ops.gold output);
        Some counters
      | Error f ->
        add [ f ];
        None
    in
    (* path 2: mlir_CPU lowering, interpreted *)
    let lowered =
      match run_cpu_lowered host accel case ops with
      | Ok (output, counters, m) ->
        add (roundtrip ~stage:"cpu-lowered" m);
        add (compare_output ~path:"cpu-lowered" ops.gold output);
        Some counters
      | Error f ->
        add [ f ];
        None
    in
    (* the interpreter's cost model must agree exactly with the native
       reference for the plain matmul loop nest (see suite_e2e) *)
    (match (case.workload, native, lowered) with
    | Fuzz_case.Matmul _, Some nc, Some lc ->
      if nc.Perf_counters.cycles <> lc.Perf_counters.cycles then
        add
          [
            Invariant
              (Printf.sprintf "cpu-lowered cycles (%.0f) differ from native cycles (%.0f)"
                 lc.Perf_counters.cycles nc.Perf_counters.cycles);
          ]
    | _ -> ());
    (* path 3: the full accelerator pipeline *)
    match Pipeline.run_result (accel_pipeline host accel case) source with
    | Error reason ->
      if !failures = [] then Rejected reason else Failed !failures
    | exception Failure msg ->
      add [ Crash { path = "accel-compile"; message = msg } ];
      Failed !failures
    | Ok compiled -> (
      add (roundtrip ~stage:"accel-compiled" compiled);
      (match run_accel host accel case ops compiled with
      | Ok (output, counters, parity) ->
        add (compare_output ~path:"accel" ops.gold output);
        add (check_invariants case counters);
        add parity;
        if case.double_buffer then
          add
            (check_double_buffer_twin host accel case ops ~async_output:output
               ~async_counters:counters)
      | Error f -> add [ f ]);
      match !failures with [] -> Pass | fs -> Failed fs))
