(* Service-time oracle: model name -> simulated cycles, through the
   real compile+simulate pipeline, memoised per (engine config, layer,
   batch). The matmul engine is a per-call argument, so one oracle
   costs every instance of a heterogeneous platform; the conv engine
   is the fixed Sec. IV-D sidecar on every instance. *)

type t = {
  oc_models : (string * Tune_workload.named list) list;
  oc_graphs : (string * Graph_ir.t) list;
  oc_fingerprints : (Accel_config.t, string) Hashtbl.t;
      (** engine -> fingerprint, so a lookup hashes no config JSON *)
  oc_memo : (string, float * float) Hashtbl.t;
      (** key -> (cycles, dma_words moved by the measured run) *)
  mutable oc_hits : int;
  mutable oc_misses : int;
}

let models_of_specs ?(rows = 2) ?(seq = 128) specs =
  let resolve spec =
    match spec with
    | "resnet18" -> Ok (Tune_workload.resnet18_layers ~rows ())
    | "tinybert" -> Ok (Tune_workload.tinybert_layers ~seq ())
    | _ -> Tune_workload.of_spec spec
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
      match resolve spec with
      | Ok layers -> go ((spec, layers) :: acc) rest
      | Error msg -> Error msg)
  in
  match specs with
  | [] -> Error "at least one workload spec is required"
  | _ -> go [] specs

let default_matmul_accel () = Presets.matmul ~version:Accel_matmul.V4 ~size:16 ()

let default_engine = lazy (default_matmul_accel ())

let engine_or_default = function
  | Some engine -> engine
  | None -> Lazy.force default_engine

let create ?(graphs = []) models =
  {
    oc_models = models;
    oc_graphs = graphs;
    oc_fingerprints = Hashtbl.create 4;
    oc_memo = Hashtbl.create 16;
    oc_hits = 0;
    oc_misses = 0;
  }

let models t = List.map fst t.oc_models @ List.map fst t.oc_graphs

let memo_stats t = (t.oc_hits, t.oc_misses)

let layers t model =
  match List.assoc_opt model t.oc_models with
  | Some layers -> layers
  | None ->
    failwith
      (Printf.sprintf "serving oracle: unknown model %S (models: %s)" model
         (String.concat ", " (models t)))

(* Engine-config fingerprints ({!Benchdiff.config_hash} over the
   canonical config JSON): part of every memo key, so a memoised cycle
   count can never be served for a measurement taken under a different
   accelerator configuration. *)
let fingerprint_of config = Benchdiff.config_hash (Accel_config.to_json config)

let conv_fingerprint =
  lazy (fingerprint_of (Presets.conv ~flow:"Os" ()))

let engine_fingerprint t engine =
  match Hashtbl.find_opt t.oc_fingerprints engine with
  | Some fp -> fp
  | None ->
    let fp = fingerprint_of engine in
    Hashtbl.add t.oc_fingerprints engine fp;
    fp

(* Canonical-shape memo key: engine fingerprint + the workload's
   canonical dimension list + batch. [matmul_fp] is the matmul
   engine's fingerprint; conv layers key on the sidecar's. *)
let memo_key ~matmul_fp (w : Tune_workload.t) ~batch =
  let fp, kind =
    match w with
    | Tune_workload.Matmul _ -> (matmul_fp, "matmul")
    | Tune_workload.Conv _ -> (Lazy.force conv_fingerprint, "conv")
  in
  Printf.sprintf "%s|%s:%s@%d" fp kind
    (String.concat "," (List.map string_of_int (Tune_workload.dims w)))
    batch

let memoised t key compute =
  match Hashtbl.find_opt t.oc_memo key with
  | Some c ->
    t.oc_hits <- t.oc_hits + 1;
    Metrics.incr "serve.oracle_hits";
    c
  | None ->
    t.oc_misses <- t.oc_misses + 1;
    Metrics.incr "serve.oracle_misses";
    let c = compute () in
    Hashtbl.add t.oc_memo key c;
    c

let counter_parts (counters : Perf_counters.t) =
  ( counters.Perf_counters.cycles,
    counters.Perf_counters.dma_words_sent +. counters.Perf_counters.dma_words_received )

(* Matmul layers compile with the Sec. IV-C "Best" selection for the
   batched shape; conv layers run the fixed Os-flow sidecar. *)
let measure_workload engine (w : Tune_workload.t) ~batch =
  let accel, options =
    match w with
    | Tune_workload.Matmul { m; n; k } ->
      (engine, Heuristics.best_options engine ~m:(batch * m) ~n ~k)
    | Tune_workload.Conv _ -> (Presets.conv ~flow:"Os" (), Axi4mlir.default_codegen)
  in
  let bench, run = Tune_eval.prepare ~batch accel ~options w in
  counter_parts (Axi4mlir.measure bench run)

let measure_layer engine (named : Tune_workload.named) ~batch =
  let w = named.Tune_workload.wl_workload in
  match measure_workload engine w ~batch with
  | parts -> parts
  | exception Pass.Pass_failure { pass; message; _ } ->
    failwith
      (Printf.sprintf "serving oracle: %s (batch %d): pass %s: %s"
         (Tune_workload.to_string w) batch pass message)
  | exception Interp.Runtime_error msg ->
    failwith
      (Printf.sprintf "serving oracle: %s (batch %d): runtime: %s"
         (Tune_workload.to_string w) batch msg)
  | exception (Failure msg | Match_annotate.Rejected msg) ->
    failwith
      (Printf.sprintf "serving oracle: %s (batch %d): %s" (Tune_workload.to_string w)
         batch msg)

let graph_key g ~batch = Printf.sprintf "graph:%s@%d" g.Graph_ir.g_name batch

let measure_graph g ~batch =
  match Graph_exec.run ~batch ~residency:true g with
  | r -> counter_parts r.Graph_exec.rs_counters
  | exception (Failure msg | Match_annotate.Rejected msg) ->
    failwith
      (Printf.sprintf "serving oracle: graph %s (batch %d): %s" g.Graph_ir.g_name
         batch msg)

(* Graph keys carry no engine: Graph_exec.run never reads the matmul
   engine. *)
let service_parts ?engine t model ~batch =
  if batch < 1 then
    failwith (Printf.sprintf "serving oracle: batch must be >= 1 (got %d)" batch);
  match List.assoc_opt model t.oc_graphs with
  | Some g -> memoised t (graph_key g ~batch) (fun () -> measure_graph g ~batch)
  | None ->
    let layers = layers t model in
    let engine = engine_or_default engine in
    let matmul_fp = engine_fingerprint t engine in
    List.fold_left
      (fun (cyc, words) (named : Tune_workload.named) ->
        let w = named.Tune_workload.wl_workload in
        let c, dw =
          memoised t (memo_key ~matmul_fp w ~batch) (fun () ->
              measure_layer engine named ~batch)
        in
        (cyc +. c, words +. dw))
      (0.0, 0.0) layers

let service ?engine t model ~batch = fst (service_parts ?engine t model ~batch)

(* SJF only needs a ranking, not calibrated cycles: matmul layers get
   the cost model's real estimate ({!Heuristics.estimate_cycles} via
   [best]); conv layers use {!Heuristics.estimate_conv_cycles}, the
   calibrated cycles-per-MAC proxy for the engine's DMA-bound regime.
   A residual conv bias merely reorders the queue — every policy stays
   work-conserving. *)
let predict_workload engine (w : Tune_workload.t) =
  match w with
  | Tune_workload.Matmul { m; n; k } -> (
    match Heuristics.best engine ~m ~n ~k with
    | Some c -> c.Heuristics.predicted_cycles
    | None -> 2.0 *. float_of_int (Tune_workload.macs w))
  | Tune_workload.Conv _ -> Heuristics.estimate_conv_cycles ~macs:(Tune_workload.macs w)

let predict_graph engine g =
  Array.fold_left
    (fun acc nd ->
      match Graph_ir.node_workload g nd with
      | Some w -> acc +. predict_workload engine w
      | None -> acc)
    0.0 g.Graph_ir.g_nodes

(* Prediction keys carry the engine: Heuristics.best depends on it. *)
let predict ?engine t model =
  let engine = engine_or_default engine in
  let key = Printf.sprintf "predict:%s|%s" (engine_fingerprint t engine) model in
  fst
    (memoised t key (fun () ->
         let p =
           match List.assoc_opt model t.oc_graphs with
           | Some g -> predict_graph engine g
           | None ->
             List.fold_left
               (fun acc (named : Tune_workload.named) ->
                 acc +. predict_workload engine named.Tune_workload.wl_workload)
               0.0 (layers t model)
         in
         (p, 0.0)))
