type outcome = {
  ev_cycles : float;
  ev_counters : Perf_counters.t;
  ev_bottleneck : string option;
}

(* The binding resource of the measured run, per the perf doctor. The
   diagnosis is a pure in-memory walk over the timeline snapshot —
   cheap next to the simulation that produced it — so every fresh
   evaluation gets one. An analysis failure is not an evaluation
   failure; the tuner just loses the seeding hint. *)
let bottleneck_of bench =
  match Doctor.diagnose (Soc.critpath_input bench.Axi4mlir.soc) with
  | Ok dg -> Some (Doctor.binding_resource dg)
  | Error _ -> None

(* Operands are allocated before compiling, as every measured run has
   always done: their Sim_memory addresses feed the cache simulator. *)
let prepare ?host ~batch accel ~options (workload : Tune_workload.t) =
  let bench = Axi4mlir.create ?host accel in
  let run =
    match workload with
    | Tune_workload.Matmul { m; n; k } ->
      (* batching stacks the batch's activation rows: m -> batch * m
         with the weight operand B shared across the batch *)
      let m = batch * m in
      let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
      let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
      fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c
    | Tune_workload.Conv { ic; ih; iw; oc; fhw; stride } ->
      (* batching is the image dimension: n -> batch *)
      let n = batch in
      let i, w, o =
        Axi4mlir.alloc_conv_operands ~stride bench ~n ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw
      in
      let ir =
        Axi4mlir.compile bench ~options
          (Axi4mlir.build_conv_module ~stride ~n ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw ())
      in
      fun () -> Axi4mlir.run_conv bench ~options ir ~i ~w ~o
  in
  (bench, run)

let run_candidate ?host workload candidate =
  Tune_space.config_of_candidate candidate
  |> Result.map (fun config ->
         let options = Tune_space.codegen_of_candidate candidate in
         let bench, run = prepare ?host ~batch:1 config ~options workload in
         let counters = Axi4mlir.measure bench run in
         ( {
             ev_cycles = counters.Perf_counters.cycles;
             ev_counters = counters;
             ev_bottleneck = bottleneck_of bench;
           },
           bench ))

(* "Cannot offload" (Rejected), pass breakage (Pass_failure) and a
   failed run are all ordinary negative outcomes for a tuner. *)
let protect f =
  match f () with
  | result -> result
  | exception (Failure msg | Match_annotate.Rejected msg) -> Error msg
  | exception Pass.Pass_failure { pass; failing_op = _; message } ->
    Error (Printf.sprintf "%s: %s" pass message)
  | exception Interp.Runtime_error msg -> Error ("runtime: " ^ msg)

let evaluate ?host ?tracer workload candidate =
  let t0 = Sys.time () in
  let result =
    protect (fun () -> Result.map fst (run_candidate ?host workload candidate))
  in
  (match result with
  | Ok _ -> Metrics.incr "tuner_evaluations"
  | Error _ -> Metrics.incr "tuner_rejected");
  (match tracer with
  | None -> ()
  | Some tracer ->
    let ts = t0 *. 1e6 and dur = (Sys.time () -. t0) *. 1e6 in
    Trace.complete tracer ~cat:"tuner" ~track:Trace.tuner_track ~ts ~dur
      ~args:
        [
          ("candidate", Trace.Str (Tune_space.candidate_to_string candidate));
          ( "outcome",
            match result with
            | Ok o -> Trace.Num o.ev_cycles
            | Error msg -> Trace.Str ("rejected: " ^ msg) );
        ]
      ("evaluate " ^ Tune_space.candidate_to_string candidate));
  result

let diagnose ?host workload candidate =
  match protect (fun () -> run_candidate ?host workload candidate) with
  | Error msg -> Error msg
  | Ok (_, bench) -> Doctor.diagnose (Soc.critpath_input bench.Axi4mlir.soc)
