(* Shared helpers for the experiment harness. *)

let quick = ref false
(* --quick trims sweeps for smoke-testing the harness *)

let trace_dir : string option ref = ref None
(* --trace DIR: write one Chrome trace per experiment into DIR *)

let json_dir : string option ref = ref None
(* --json DIR: write one BENCH_<exp>.json artifact per experiment *)

let current_experiment = ref "experiment"
let traced : (string, unit) Hashtbl.t = Hashtbl.create 8
let doctored : (string, unit) Hashtbl.t = Hashtbl.create 8

(* Per-experiment accumulator for the bench artifact. Helpers below
   stamp the measurement context (kind, dims) just before measuring;
   the context is consumed by the first point recorded after it so a
   stale stamp cannot mislabel an unrelated direct [measure] call. *)
let json_points : Benchdiff.point list ref = ref []
let point_seq = ref 0
let context = ref ("run", ([] : int list))
let set_context kind dims = context := (kind, dims)

let config_hash (bench : Axi4mlir.t) =
  Benchdiff.config_hash (Accel_config.to_json bench.Axi4mlir.accel)

let record_point bench counters =
  if !json_dir <> None then begin
    incr point_seq;
    let kind, dims = !context in
    context := ("run", []);
    json_points :=
      {
        Benchdiff.pt_id = Printf.sprintf "%s/%03d" !current_experiment !point_seq;
        pt_kind = kind;
        pt_dims = dims;
        pt_config = config_hash bench;
        pt_metrics = Benchdiff.metrics_of_fields (Perf_counters.fields counters);
      }
      :: !json_points
  end

(* Points whose metrics are not Perf_counters fields (the serving
   experiment's latency percentiles): caller supplies kind, dims, a
   config hash and the metric list directly. Unknown metric names are
   compared Exact-at-zero by the gate, which is what a deterministic
   simulation wants. *)
let record_custom_point ~kind ~dims ~config metrics =
  if !json_dir <> None then begin
    incr point_seq;
    json_points :=
      {
        Benchdiff.pt_id = Printf.sprintf "%s/%03d" !current_experiment !point_seq;
        pt_kind = kind;
        pt_dims = dims;
        pt_config = config;
        pt_metrics = metrics;
      }
      :: !json_points
  end

let begin_experiment name =
  current_experiment := name;
  point_seq := 0;
  json_points := [];
  context := ("run", []);
  Metrics.reset Metrics.default;
  Metrics.set_ambient Metrics.default [ ("experiment", name) ]

(* Write the experiment's artifacts: the bench points, and (when the
   registry is live) the metrics dump next to the trace. *)
let end_experiment () =
  match !json_dir with
  | None -> ()
  | Some dir ->
    let doc =
      {
        Benchdiff.doc_experiment = !current_experiment;
        doc_quick = !quick;
        doc_points = List.rev !json_points;
      }
    in
    let path = Filename.concat dir (Benchdiff.filename !current_experiment) in
    Benchdiff.write_file path doc;
    Printf.printf "  [bench json: %s (%d points)]\n" path
      (List.length doc.Benchdiff.doc_points);
    if Metrics.enabled Metrics.default then begin
      let mpath = Filename.concat dir (!current_experiment ^ ".metrics.json") in
      Json.write_file ~indent:2 mpath (Metrics.to_json ())
    end

(* The perf doctor's diagnosis of each experiment's first measured run
   whose timeline recorded anything (a pure-CPU baseline has no event
   DAG to walk). It runs under --json or --trace: an analysis failure is
   a broken attribution invariant, so it fails the harness rather than
   silently skipping the run. Only --trace writes the <exp>.critpath.json
   artifact, next to the experiment's Chrome trace: a whole-run critical
   path can run to tens of MB. *)
let record_critpath (bench : Axi4mlir.t) =
  if (!json_dir <> None || !trace_dir <> None) && not (Hashtbl.mem doctored !current_experiment)
  then begin
    let input = Soc.critpath_input bench.Axi4mlir.soc in
    if input.Critpath.in_intervals <> [] then
      match Doctor.diagnose input with
      | Error msg -> failwith (Printf.sprintf "%s: perf doctor: %s" !current_experiment msg)
      | Ok dg ->
        Hashtbl.add doctored !current_experiment ();
        Option.iter
          (fun dir ->
            let path = Filename.concat dir (!current_experiment ^ ".critpath.json") in
            Doctor.write_json dg ~path;
            Printf.printf "  [critpath: %s (%s-bound)]\n" path (Doctor.binding_resource dg))
          !trace_dir
  end

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

let ms (bench : Axi4mlir.t) counters = Axi4mlir.task_clock_ms bench counters

(* Measure a thunk on a fresh run state. The simulator is deterministic,
   so a single run replaces the paper's average of five. *)
let measure (bench : Axi4mlir.t) thunk =
  let counters =
    match !trace_dir with
    | Some dir when not (Hashtbl.mem traced !current_experiment) ->
      (* Trace the experiment's first measured run that records any
         events (pure-CPU baselines record none): a sweep repeats the
         same code paths, so one representative trace per experiment
         keeps the output browsable. *)
      let tracer = Axi4mlir.enable_tracing bench in
      let counters = Axi4mlir.measure bench thunk in
      let events = Trace.events tracer in
      Trace.disable tracer;
      if events <> [] then begin
        Hashtbl.add traced !current_experiment ();
        let path = Filename.concat dir (!current_experiment ^ ".trace.json") in
        Chrome_trace.write_file
          ~cpu_freq_mhz:bench.Axi4mlir.host.Host_config.frequency_mhz
          ~track_names:(Soc.engine_track_names bench.Axi4mlir.soc) path events;
        Printf.printf "  [trace: %s (%d events)]\n" path (List.length events)
      end;
      counters
    | _ -> Axi4mlir.measure bench thunk
  in
  record_point bench counters;
  record_critpath bench;
  counters

let speedup ~baseline ~candidate = baseline /. candidate

let reduction ~baseline ~candidate = 1.0 -. (candidate /. baseline)

let matmul_dims ~(a : Memref_view.t) ~(c : Memref_view.t) =
  match (a.Memref_view.shape, c.Memref_view.shape) with
  | [ m; k ], [ _; n ] -> [ m; n; k ]
  | _ -> []

(* CPU-only execution of a matmul, simulated exactly. *)
let cpu_matmul_counters (bench : Axi4mlir.t) ~a ~b ~c =
  set_context "cpu_matmul" (matmul_dims ~a ~c);
  measure bench (fun () -> Cpu_reference.matmul bench.Axi4mlir.soc ~a ~b ~c)

let generated_matmul_counters (bench : Axi4mlir.t) ?(options = Axi4mlir.default_codegen)
    ~m ~n ~k ~a ~b ~c () =
  let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
  set_context "generated_matmul" [ m; n; k ];
  measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)

let manual_matmul_counters (bench : Axi4mlir.t) accel ~flow ?tiles ~a ~b ~c () =
  set_context "manual_matmul" (matmul_dims ~a ~c);
  measure bench (fun () ->
      Manual_matmul.run bench.Axi4mlir.soc accel ~flow ?tiles ~a ~b ~c ())

let version_name = Accel_matmul.version_to_string
