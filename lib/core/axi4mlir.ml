type t = {
  soc : Soc.t;
  host : Host_config.t;
  accel : Accel_config.t;
  engine : Dma_engine.t;
}

let create ?(host = Host_config.pynq_z2) accel =
  let soc = Soc.create ~cache_geometries:host.Host_config.caches () in
  let engine = Accel_config.attach soc accel in
  { soc; host; accel; engine }

let alloc_view t ~label shape =
  let n = List.fold_left ( * ) 1 shape in
  let buf = Sim_memory.alloc t.soc.Soc.memory ~label n in
  Gold.fill_deterministic ~seed:(Hashtbl.hash label) buf.Sim_memory.data;
  Memref_view.of_buffer buf shape

let alloc_zero t ~label shape =
  let n = List.fold_left ( * ) 1 shape in
  let buf = Sim_memory.alloc t.soc.Soc.memory ~label n in
  Memref_view.of_buffer buf shape

let alloc_matmul_operands t ~m ~n ~k =
  ( alloc_view t ~label:"A" [ m; k ],
    alloc_view t ~label:"B" [ k; n ],
    alloc_zero t ~label:"C" [ m; n ] )

let alloc_conv_operands ?(stride = 1) t ~n ~ic ~ih ~iw ~oc ~fh ~fw =
  let oh = Gold.conv_out ih ~fhw:fh ~stride and ow = Gold.conv_out iw ~fhw:fw ~stride in
  ( alloc_view t ~label:"I" [ n; ic; ih; iw ],
    alloc_view t ~label:"W" [ oc; ic; fh; fw ],
    alloc_zero t ~label:"O" [ n; oc; oh; ow ] )

let matmul_func_name = "matmul_call"
let conv_func_name = "conv_call"

let build_matmul_module ~m ~n ~k () =
  let a_ty = Ty.memref [ m; k ] Ty.F32 in
  let b_ty = Ty.memref [ k; n ] Ty.F32 in
  let c_ty = Ty.memref [ m; n ] Ty.F32 in
  let f =
    Func.func_op (Ir.context ()) ~name:matmul_func_name ~args:[ a_ty; b_ty; c_ty ] (fun b args ->
        match args with
        | [ a; bv; c ] ->
          ignore (Linalg.matmul b ~a ~b:bv ~c);
          Func.return_op b []
        | _ -> assert false)
  in
  Ir.module_op [ f ]

let build_conv_module ?(stride = 1) ~n ~ic ~ih ~iw ~oc ~fh ~fw () =
  let oh = Gold.conv_out ih ~fhw:fh ~stride and ow = Gold.conv_out iw ~fhw:fw ~stride in
  let i_ty = Ty.memref [ n; ic; ih; iw ] Ty.F32 in
  let w_ty = Ty.memref [ oc; ic; fh; fw ] Ty.F32 in
  let o_ty = Ty.memref [ n; oc; oh; ow ] Ty.F32 in
  let f =
    Func.func_op (Ir.context ()) ~name:conv_func_name ~args:[ i_ty; w_ty; o_ty ] (fun b args ->
        match args with
        | [ input; filter; output ] ->
          ignore (Linalg.conv_2d_nchw_fchw ~stride b ~input ~filter ~output);
          Func.return_op b []
        | _ -> assert false)
  in
  Ir.module_op [ f ]

type codegen_options = Codegen_options.t = {
  flow : string option;
  tiles : int list option;
  cpu_tiling : bool;
  copy_specialization : bool;
  coalesce_transfers : bool;
  double_buffer : bool;
  to_runtime_calls : bool;
}

let default_codegen = Codegen_options.default

let compile t ?(options = default_codegen) ?stats ?tracer m =
  Pipeline.run ?stats ?tracer (Pipeline.make ~accel:t.accel ~host:t.host ~options ()) m

let compile_matmul t ?(options = default_codegen) ~m ~n ~k () =
  compile t ~options (build_matmul_module ~m ~n ~k ())

let compile_cpu ?stats ?tracer m = Pipeline.run_cpu ?stats ?tracer m

let enable_tracing t = Soc.enable_tracing t.soc
let tracer t = t.soc.Soc.tracer

let sole_func_name m =
  match List.filter Func.is_func (Ir.module_body m) with
  | [ f ] -> Func.name_of f
  | fs ->
    failwith (Printf.sprintf "expected exactly one function in the module, found %d"
                (List.length fs))

let run_func t ?copy_strategy m name args =
  let interp = Interp.create ?copy_strategy t.soc m in
  ignore (Interp.invoke interp name args)

(* Only the accel-dialect level reads the interpreter's strategy; the
   runtime-call level names it in its "_spec" callees. *)
let copy_strategy_of options =
  if options.copy_specialization then Dma_library.Specialized else Dma_library.Generic

let run_matmul t ?(options = default_codegen) m ~a ~b ~c =
  run_func t ~copy_strategy:(copy_strategy_of options) m (sole_func_name m)
    [ Interp.M a; Interp.M b; Interp.M c ]

let run_conv t ?(options = default_codegen) m ~i ~w ~o =
  run_func t ~copy_strategy:(copy_strategy_of options) m conv_func_name
    [ Interp.M i; Interp.M w; Interp.M o ]

let measure t thunk =
  Soc.reset_run_state t.soc;
  thunk ();
  (* Reported task_clock is the makespan: the host's own clock extended
     to cover any DMA/accelerator agent still busy past it. Identity
     for blocking runs (the timeline is empty there). *)
  Soc.absorb_makespan t.soc;
  Perf_counters.copy t.soc.Soc.counters

let task_clock_ms t counters =
  Perf_counters.task_clock_ms counters ~cpu_freq_mhz:t.host.Host_config.frequency_mhz
