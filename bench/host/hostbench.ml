(* hostbench: what the simulator stack costs the host, end to end and
   layer by layer.

     dune exec bench/host/hostbench.exe -- [--workload NAME]... [--seed N]
       [--seconds S] [--trace 0|1|FILE] [--json FILE] [--bless] [--smoke]

   A closed loop on one thread: each unit starts when the previous one
   has finished. With more than one workload the harness re-executes
   itself once per workload, one child at a time, so set-up time, peak
   heap and GC state belong to that workload alone. See README.md for the
   workloads and metrics. Run it from the root of the repository, where
   it finds its pins. The last line of standard output is a JSON
   summary: {"correct", "attempted", "failed", "metrics"}. *)

let default_seed = 1

type opts = {
  names : string list;
  seed : int;
  seconds : float option;  (* measure about this long instead of the default passes *)
  trace : bool;
  trace_file : string option;
  json : string option;
  bless : bool;
  smoke : bool;
}

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("hostbench: " ^ msg);
      exit 2)
    fmt

let finite v = if Float.is_finite v then v else 0.0
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_gcs : float;
  counts : (string, float) Hashtbl.t;
  self : Spans.self list;  (* [] when untraced *)
  events : Trace.event list;  (* [] when untraced *)
}

type prepared = { id : string; run : Workloads.ctx -> Workloads.outcome }

let run_pass (w : Workloads.t) units ~trace ~index ~pins ~tally =
  Gc.full_major ();
  let ctx = { Workloads.trace; pass = index; unit_id = ""; counts = Hashtbl.create 64 } in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  (* [Gc.counters] leaves out the current minor heap; [Gc.minor_words]
     counts it, as the spans do *)
  let _, promoted0, _ = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  List.iter
    (fun u ->
      ctx.unit_id <- u.id;
      let problems =
        Workloads.span ctx "harness.unit" (fun () ->
            match u.run ctx with
            | o -> o.problems @ Pins.observe pins u.id o.obs
            | exception e -> [ "raised " ^ Printexc.to_string e ])
      in
      Stats.record tally ~ok:(problems = []);
      List.iter (fun p -> Printf.eprintf "FAIL %s %s: %s\n%!" w.name u.id p) problems)
    units;
  let ns = Spans.now_ns () -. t0 in
  let minor1 = Gc.minor_words () in
  let _, promoted1, _ = Gc.counters () in
  let majors1 = (Gc.quick_stat ()).Gc.major_collections in
  let events = Trace.events trace in
  Trace.clear trace;
  {
    wall_s = ns /. 1e9;
    minor_words = minor1 -. minor0;
    promoted_words = promoted1 -. promoted0;
    major_gcs = float_of_int (majors1 - majors0);
    counts = ctx.counts;
    self = (if events = [] then [] else Spans.self_times ~ns ~words:(minor1 -. minor0) events);
    events;
  }

let unit_specs opts (w : Workloads.t) =
  let specs = w.units ~seed:opts.seed in
  if opts.smoke then List.filter (fun (s : Workloads.unit_spec) -> List.mem s.id w.smoke) specs
  else specs

(* Set-up: every unit's inputs and Gold references, then one warm-up
   unit (the workload's first cheap unit). Returns its time and the
   units. *)
let setup opts (w : Workloads.t) =
  let specs = unit_specs opts w in
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  let units =
    List.map (fun (s : Workloads.unit_spec) -> { id = s.id; run = s.prepare () }) specs
  in
  let warm_up = List.find (fun u -> u.id = List.hd w.smoke) units in
  let ctx =
    { Workloads.trace = Trace.noop; pass = -1; unit_id = warm_up.id; counts = Hashtbl.create 8 }
  in
  (try ignore (warm_up.run ctx) with _ -> ());
  ((Spans.now_ns () -. t0) /. 1e9, units)

(* Passes until [budget]: a pass count, or seconds of measured time. At
   least one pass runs; after that, none starts that would end past the
   seconds if it took the mean pass time. Every pass runs on units from
   a set-up of its own, outside the pass, so set-up is timed as often as
   passes are and across the same stretch of the run (another tenant's
   load comes and goes over seconds to minutes). Returns the passes and
   the set-up times. *)
let run_passes opts w ~trace ~first ~budget ~pins ~tally =
  let rec loop acc setups index elapsed =
    let setup_s, units = setup opts w in
    let p = run_pass w units ~trace ~index ~pins ~tally in
    let acc = p :: acc and setups = setup_s :: setups and elapsed = elapsed +. p.wall_s in
    let done_ = index - first + 1 in
    let more =
      match budget with
      | `Passes n -> done_ < n
      | `Seconds s -> elapsed *. float_of_int (done_ + 1) /. float_of_int done_ <= s
    in
    if more then loop acc setups (index + 1) elapsed else (List.rev acc, setups)
  in
  loop [] [] first 0.0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let median_of f passes = Stats.median (List.map f passes)

(* Per-layer metrics of one traced pass. *)
let per_layer_metrics : (string * string * (pass -> float)) list =
  let self name p = List.find_opt (fun (s : Spans.self) -> s.name = name) p.self in
  let ns name p = match self name p with Some s -> s.self_ns | None -> 0.0 in
  let sec name p = ns name p /. 1e9 in
  let words name p = match self name p with Some s -> s.self_words | None -> 0.0 in
  let c key p = Option.value ~default:0.0 (Hashtbl.find_opt p.counts key) in
  let ratio a b p = if b p = 0.0 then 0.0 else a p /. b p in
  let sum a b p = a p +. b p and diff a b p = a p -. b p in
  [
    ("ir.build_s", "s", sec "ir.build");
    ("ir.roundtrip_s", "s", sec "ir.roundtrip");
    ("ir.ops_out", "count", c "ir.ops_out");
    ("transforms.compile_s", "s", sec "transforms.compile");
    ( "transforms.us_per_op",
      "us/op",
      ratio (fun p -> ns "transforms.compile" p /. 1e3) (c "ir.ops_out") );
    ( "transforms.accept_ratio",
      "ratio",
      ratio (c "transforms.accepted") (c "transforms.attempted") );
    ("interp.run_s", "s", sec "interp.run");
    ("interp.sim_instructions", "count", c "interp.sim_instructions");
    ( "interp.ns_per_sim_instr",
      "ns/instr",
      ratio (ns "interp.run") (c "interp.sim_instructions") );
    ( "interp.alloc_words_per_sim_instr",
      "words/instr",
      ratio (words "interp.run") (c "interp.sim_instructions") );
    ("interp.ns_per_dma_word", "ns/word", ratio (ns "interp.run") (c "interp.dma_words"));
    ("drivers.run_s", "s", sec "drivers.run");
    ("drivers.ns_per_dma_word", "ns/word", ratio (ns "drivers.run") (c "drivers.dma_words"));
    ("drivers.ns_per_cache_ref", "ns/ref", ratio (ns "drivers.run") (c "drivers.cache_refs"));
    ("async.run_s", "s", sec "async.run");
    ("async.twin_run_s", "s", sec "async.twin_run");
    ("async.host_overhead_ratio", "ratio", ratio (ns "async.run") (ns "async.twin_run"));
    ( "async.ns_per_dma_transaction",
      "ns/txn",
      ratio (ns "async.run") (c "async.dma_transactions") );
    ("graph.baseline_s", "s", sec "graph.baseline");
    ("graph.residency_s", "s", sec "graph.residency");
    ( "graph.elided_word_ratio",
      "ratio",
      ratio
        (diff (c "graph.baseline_words") (c "graph.residency_words"))
        (c "graph.baseline_words") );
    ("serve.oracle_s", "s", sec "serve.oracle");
    ( "serve.oracle_hit_ratio",
      "ratio",
      ratio (c "serve.oracle_hits") (sum (c "serve.oracle_hits") (c "serve.oracle_misses")) );
    ("serve.sched_s", "s", sec "serve.sched");
    ("serve.dispatches", "count", c "serve.dispatches");
    ("platform.search_s", "s", sec "platform.search");
    ("platform.evaluated", "count", c "platform.evaluated");
    ("sim.setup_s", "s", sec "sim.setup");
    ("sim.cycles", "cycles", c "sim.cycles");
    ("sim.dma_words", "words", c "sim.dma_words");
    ("sim.dma_transactions", "count", c "sim.dma_transactions");
    ("sim.cache_refs", "count", c "sim.cache_refs");
    ("sim.accel_busy_cycles", "cycles", c "sim.accel_busy_cycles");
  ]

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  passes : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let result_line r =
  let metric (name, v, u) =
    (name, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.String u) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", Json.Obj (List.map metric r.metrics));
       ])

let parse_result_line ~workload line =
  let json = Json.of_string line in
  let metric (name, m) =
    (name, Json.to_float (Json.member "value" m), Json.to_str (Json.member "unit" m))
  in
  {
    workload;
    correct = Json.to_bool (Json.member "correct" json);
    attempted = Json.to_int (Json.member "attempted" json);
    failed = Json.to_int (Json.member "failed" json);
    passes = 0;
    metrics = List.map metric (Json.to_obj (Json.member "metrics" json));
  }

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let bench_point ~seed r =
  let error_rate = Stats.error_rate { Stats.attempted = r.attempted; failed = r.failed } in
  {
    Benchdiff.pt_id = "hostbench/" ^ r.workload;
    pt_kind = "host_" ^ r.workload;
    pt_dims = [ seed; r.passes ];
    pt_config = Benchdiff.stable_hash (Printf.sprintf "%s seed=%d" r.workload seed);
    pt_metrics =
      List.map (fun (name, v, _) -> (name, finite v)) r.metrics
      @ [
          ("attempted", float_of_int r.attempted);
          ("failed", float_of_int r.failed);
          ("error_rate", error_rate);
        ];
  }

let write_doc ~smoke path points =
  Benchdiff.write_file path
    { Benchdiff.doc_experiment = "hostbench"; doc_quick = smoke; doc_points = points }

(* Write a Chrome trace, read it back and check that it parses and its
   spans balance. *)
let write_trace path events =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Spans.chrome_document events));
      output_char oc '\n');
  match Spans.check_chrome (Json.of_string (read_file path)) with
  | Ok n -> Printf.printf "trace: %s (%d spans, balanced)\n" path n
  | Error msg -> die "%s: malformed trace: %s" path msg
  | exception Json.Parse_error msg -> die "%s: trace does not parse: %s" path msg

let trace_events path =
  Json.to_list (Json.member "traceEvents" (Json.of_string (read_file path)))

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let print_metric (name, v, u) = Printf.printf "  %-34s %14.6g %s\n" name v u

(* Self time and allocation per span name, mean over the traced passes.
   The rows sum to the traced pass time; "host" is the part no span
   covers. *)
let print_self_table traced =
  let n = float_of_int (List.length traced) in
  let wall = List.fold_left (fun acc p -> acc +. p.wall_s) 0.0 traced /. n in
  let totals = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun ({ name; _ } as s : Spans.self) ->
          let ns, words, calls =
            Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name
            (ns +. s.self_ns, words +. s.self_words, calls + s.calls))
        p.self)
    traced;
  let rows =
    List.sort
      (fun (_, (a, _, _)) (_, (b, _, _)) -> Float.compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])
  in
  Printf.printf "per-layer self time and allocation (traced, mean of %d passes):\n"
    (List.length traced);
  Printf.printf "  %-24s %10s %10s %7s %14s\n" "span" "calls" "self s" "share" "self Mwords";
  List.iter
    (fun (name, (ns, words, calls)) ->
      let s = ns /. 1e9 /. n in
      Printf.printf "  %-24s %10.0f %10.4f %6.1f%% %14.3f\n" name
        (float_of_int calls /. n)
        s (100.0 *. s /. wall) (words /. 1e6 /. n))
    rows;
  let covered =
    List.fold_left
      (fun acc (name, (ns, _, _)) -> if name = "host" then acc else acc +. ns)
      0.0 rows
    /. 1e9 /. n
  in
  Printf.printf "  span self times sum to %.4f s = %.1f%% of the traced pass time %.4f s\n"
    covered (100.0 *. covered /. wall) wall

let load_pins opts (w : Workloads.t) =
  if opts.bless then Pins.Record (Hashtbl.create 64)
  else if opts.seed <> default_seed then Pins.Off
  else
    match Pins.load w.name with
    | Ok t -> Pins.Check t
    | Error msg -> die "%s (run once with --bless to create the pins)" msg

let run_workload opts (w : Workloads.t) =
  let pins = load_pins opts w in
  Printf.printf "== %s (seed %d): %s\n%!" w.name opts.seed w.why;
  let tally = Stats.tally () in
  let budget =
    match opts.seconds with
    | Some s -> `Seconds (if opts.trace then s /. 2.0 else s)
    | None -> `Passes (if opts.smoke then 1 else w.default_passes)
  in
  let plain, setups = run_passes opts w ~trace:Trace.noop ~first:0 ~budget ~pins ~tally in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6 in
  let traced =
    if opts.trace then begin
      let trace = Trace.create () in
      Spans.enable trace;
      fst (run_passes opts w ~trace ~first:(List.length plain) ~budget ~pins ~tally)
    end
    else []
  in
  List.iteri
    (fun i p ->
      Printf.printf "pass %d: %.4f s, %.3f Mwords allocated, %.3f promoted, %.0f major GCs\n" i
        p.wall_s (p.minor_words /. 1e6) (p.promoted_words /. 1e6) p.major_gcs)
    plain;
  let wall p = p.wall_s in
  let e2e =
    [
      ("wall_s", median_of wall plain, "s");
      ("setup_s", Stats.median setups, "s");
      ("alloc_mwords", median_of (fun p -> p.minor_words /. 1e6) plain, "Mwords");
      ("promoted_mwords", median_of (fun p -> p.promoted_words /. 1e6) plain, "Mwords");
      ("peak_heap_mb", peak_heap_mb, "MB");
    ]
  in
  let q1, _, q3 = Stats.quartiles (List.map wall plain) in
  Printf.printf
    "end to end (tracing off, median of %d passes; wall_s quartiles %.4f..%.4f):\n"
    (List.length plain) q1 q3;
  List.iter print_metric e2e;
  Printf.printf "  %-34s %14.6g ratio (%d of %d units failed)\n" "error_rate"
    (Stats.error_rate tally) tally.failed tally.attempted;
  let metrics, passes =
    if not opts.trace then (e2e, List.length plain)
    else begin
      print_self_table traced;
      let overhead = (median_of wall traced /. median_of wall plain) -. 1.0 in
      let layer =
        List.map (fun (name, u, f) -> (name, median_of f traced, u)) per_layer_metrics
        @ [
            ("gc.major_collections", median_of (fun p -> p.major_gcs) plain, "count");
            ("trace.overhead_ratio", overhead, "ratio");
          ]
      in
      Printf.printf "per-layer metrics (median of %d traced passes):\n" (List.length traced);
      List.iter print_metric layer;
      Option.iter
        (fun path ->
          let pid = 1 + Option.value ~default:0 (List.find_index (( == ) w) Workloads.all) in
          write_trace path
            (Spans.chrome_events ~pid ~workload:w.name
               (List.concat_map (fun p -> p.events) traced)))
        opts.trace_file;
      (layer, List.length traced)
    end
  in
  (match pins with
  | Pins.Record _ when tally.failed > 0 ->
    die "%s: not blessing, %d units failed" w.name tally.failed
  | Pins.Record seen ->
    Pins.save ~workload:w.name ~seed:opts.seed
      (List.map (fun (s : Workloads.unit_spec) -> s.id) (unit_specs opts w))
      seen;
    Printf.printf "blessed %s\n" (Pins.path w.name)
  | Pins.Off | Pins.Check _ -> ());
  {
    workload = w.name;
    correct = tally.failed = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    passes;
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* Several workloads: one child process each, one at a time            *)
(* ------------------------------------------------------------------ *)

let run_child opts name =
  let part = Option.map (fun f -> Printf.sprintf "%s.%s.part" f name) in
  let trace_part = part opts.trace_file and json_part = part opts.json in
  let trace_arg =
    match trace_part with Some f -> f | None -> if opts.trace then "1" else "0"
  in
  let args =
    List.concat
      [
        [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int opts.seed ];
        (match opts.seconds with
        | Some s -> [ "--seconds"; Printf.sprintf "%g" s ]
        | None -> []);
        [ "--trace"; trace_arg ];
        (match json_part with Some f -> [ "--json"; f ] | None -> []);
        (if opts.bless then [ "--bless" ] else []);
        (if opts.smoke then [ "--smoke" ] else []);
      ]
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec echo last =
    match In_channel.input_line ic with
    | Some line ->
      print_endline line;
      echo (Some line)
    | None -> last
  in
  let last = echo None in
  let r =
    match (Unix.close_process_in ic, last) with
    | Unix.WEXITED (0 | 1), Some line -> (
      try parse_result_line ~workload:name line
      with Json.Parse_error _ | Json.Type_error _ -> die "%s: no result line" name)
    | _ -> die "%s: child process failed" name
  in
  (r, trace_part, json_part)

let run_all opts (ws : Workloads.t list) =
  let children = List.map (fun (w : Workloads.t) -> run_child opts w.name) ws in
  let results = List.map (fun (r, _, _) -> r) children in
  Option.iter
    (fun path ->
      let parts = List.filter_map (fun (_, t, _) -> t) children in
      write_trace path (List.concat_map trace_events parts);
      List.iter Sys.remove parts)
    opts.trace_file;
  Option.iter
    (fun path ->
      let parts = List.filter_map (fun (_, _, j) -> j) children in
      let points f =
        match Benchdiff.read_file f with
        | Ok d -> d.Benchdiff.doc_points
        | Error msg -> die "%s" msg
      in
      write_doc ~smoke:opts.smoke path (List.concat_map points parts);
      List.iter Sys.remove parts)
    opts.json;
  Printf.printf "\n== summary\n";
  List.iter
    (fun r ->
      Printf.printf "%-16s %s  %d/%d units failed\n" r.workload
        (if r.correct then "ok  " else "FAIL")
        r.failed r.attempted;
      List.iter print_metric r.metrics)
    results;
  {
    workload = "all";
    correct = List.for_all (fun r -> r.correct) results;
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 results;
    failed = List.fold_left (fun a r -> a + r.failed) 0 results;
    passes = 0;
    metrics =
      List.concat_map
        (fun r -> List.map (fun (n, v, u) -> (r.workload ^ "/" ^ n, v, u)) r.metrics)
        results;
  }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let parse_args () =
  let names = ref [] and seed = ref default_seed and seconds = ref None in
  let trace = ref "0" and json = ref None and bless = ref false and smoke = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> names := s :: !names),
        "NAME  run this workload (repeatable; default: all)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1; pins are checked only for 1)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S  measure at least S seconds instead of the default passes" );
      ( "--trace",
        Arg.Set_string trace,
        "0|1|FILE  traced per-layer run; FILE also gets the Perfetto spans" );
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE  write an axi4mlir-bench-v1 document" );
      ("--bless", Arg.Set bless, " rewrite the pinned observations (seed 1 only)");
      ("--smoke", Arg.Set smoke, " one pass over each workload's cheap units");
    ]
  in
  Arg.parse specs (fun a -> die "unexpected argument %S" a) "hostbench [options]";
  let trace, trace_file =
    match !trace with "0" -> (false, None) | "1" -> (true, None) | f -> (true, Some f)
  in
  (match !seconds with
  | Some s when not (s > 0.0) -> die "--seconds must be positive"
  | _ -> ());
  if !bless && (!seed <> default_seed || !smoke) then
    die "--bless needs the default seed and a full run";
  List.iter
    (fun n ->
      if Workloads.find n = None then
        die "unknown workload %S (one of: %s)" n
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))
    !names;
  {
    names = List.rev !names;
    seed = !seed;
    seconds = !seconds;
    trace;
    trace_file;
    json = !json;
    bless = !bless;
    smoke = !smoke;
  }

let () =
  let opts = parse_args () in
  Dialects.register_all ();
  let ws =
    match opts.names with [] -> Workloads.all | names -> List.filter_map Workloads.find names
  in
  let r =
    match ws with
    | [ w ] ->
      let r = run_workload opts w in
      Option.iter
        (fun path -> write_doc ~smoke:opts.smoke path [ bench_point ~seed:opts.seed r ])
        opts.json;
      r
    | ws -> run_all opts ws
  in
  print_endline (result_line r);
  exit (if r.correct then 0 else 1)
