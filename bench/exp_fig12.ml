(* Fig. 12: branch-instruction, cache-reference and task-clock counters
   for the v3_16 accelerator at dims = 128, normalised to CPU-only
   execution of the same problem — (a) without the MemRef-DMA copy
   specialisation, (b) with it.

   The run fails unless, without specialisation, generated Ns exceeds
   manual Ns on branches and on cache references, and with it,
   generated Ns equals manual Ns on all three counters (to 0.1%: the
   two drivers' task clocks differ in the fifth digit) while every
   stationary flow (As, Bs, Cs) falls below generated Ns on all
   three. *)

let fail fmt = Printf.ksprintf failwith fmt
let counter_names = [ "branches"; "cache refs"; "task clock" ]

let run_variant ~specialized =
  let dims = 128 in
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:dims ~n:dims ~k:dims in
  let cpu = Report.cpu_matmul_counters bench ~a ~b ~c in
  let norm (counters : Perf_counters.t) =
    [
      counters.Perf_counters.branches /. cpu.Perf_counters.branches;
      Perf_counters.cache_references counters /. Perf_counters.cache_references cpu;
      counters.Perf_counters.cycles /. cpu.Perf_counters.cycles;
    ]
  in
  let t =
    Tabulate.create
      (("driver", Tabulate.Left)
      :: List.map (fun name -> (name, Tabulate.Right)) counter_names)
  in
  let add name values =
    Tabulate.add_row t (name :: List.map (Printf.sprintf "%.3f") values)
  in
  add "mlir_CPU" [ 1.0; 1.0; 1.0 ];
  Tabulate.add_rule t;
  let manual = norm (Report.manual_matmul_counters bench accel ~flow:"Ns" ~a ~b ~c ()) in
  add "manual Ns" manual;
  let gens =
    List.map
      (fun flow ->
        let options =
          { Axi4mlir.default_codegen with flow = Some flow; copy_specialization = specialized }
        in
        let counters =
          norm
            (Report.generated_matmul_counters bench ~options ~m:dims ~n:dims ~k:dims ~a ~b
               ~c ())
        in
        add ("gen " ^ flow) counters;
        (flow, counters))
      [ "Ns"; "As"; "Bs"; "Cs" ]
  in
  Tabulate.print t;
  (manual, gens)

(* The paper's shape as a hard gate, on the normalised counters:
   [each f xs ys] applies [f] to each counter's name and two values. *)
let each f xs ys =
  List.iteri (fun i name -> f name (List.nth xs i) (List.nth ys i)) counter_names

let check_unspecialised (manual, gens) =
  let ns = List.assoc "Ns" gens in
  each
    (fun name g m ->
      if name <> "task clock" && g <= m then
        fail "fig12a: generated Ns %s (%.4f) do not exceed manual Ns (%.4f)" name g m)
    ns manual

let check_specialised (manual, gens) =
  let ns = List.assoc "Ns" gens in
  each
    (fun name g m ->
      if Float.abs (g -. m) > 1e-3 *. m then
        fail "fig12b: generated Ns %s (%.6f) differs from manual Ns (%.6f) by over 0.1%%"
          name g m)
    ns manual;
  List.iter
    (fun (flow, counters) ->
      if flow <> "Ns" then
        each
          (fun name s g ->
            if s >= g then
              fail "fig12b: generated %s %s (%.4f) is not below generated Ns (%.4f)" flow name
                s g)
          counters ns)
    gens

let run () =
  Report.header
    "Fig. 12a: counters normalised to CPU, v3_16, dims=128, WITHOUT copy specialisation";
  let unspecialised = run_variant ~specialized:false in
  Report.note
    "Paper shape: element-wise memref copies inflate the generated drivers' cache \
     references and branches past the manual implementation.";
  Report.header
    "Fig. 12b: counters normalised to CPU, v3_16, dims=128, WITH copy specialisation";
  let specialised = run_variant ~specialized:true in
  Report.note
    "Paper shape: the memcpy-specialised copies remove the overhead; generated matches or \
     beats manual on every counter.";
  check_unspecialised unspecialised;
  check_specialised specialised
