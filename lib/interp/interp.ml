type value = I of int | F of float | M of Memref_view.t | T of Dma_library.token

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* [received] holds no words. Told apart by physical equality: the
   engine never returns it. *)
let not_received = [| Float.nan |]

type t = {
  soc : Soc.t;
  copy_strategy : Dma_library.strategy;
  funcs : (string, Ir.op * int) Hashtbl.t;  (* each with its [Ir.vid_bound] *)
  libs : (int, Dma_library.t) Hashtbl.t;  (* one DMA library per engine id *)
  mutable current_lib : Dma_library.t option;  (* of the kernel being driven *)
  mutable received : float array;
      (* dma_wait_recv's words, for copy_from: the engine's own array,
         valid until its next receive, so copy_from consumes it;
         [not_received] when there are none *)
}

let create ?(copy_strategy = Dma_library.Generic) soc module_op =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (o : Ir.op) ->
      if Func.is_func o then Hashtbl.replace funcs (Func.name_of o) (o, Ir.vid_bound o))
    (Ir.module_body module_op);
  {
    soc;
    copy_strategy;
    funcs;
    libs = Hashtbl.create 4;
    current_lib = None;
    received = not_received;
  }

let lib t =
  match t.current_lib with Some l -> l | None -> error "DMA library used before dma_init"

let init_lib t ~double_buffer ~dma_id =
  (* One initialisation per engine; a later dma_init for the same id
     (e.g. a second kernel on the same accelerator) just reselects it. *)
  let l =
    match Hashtbl.find_opt t.libs dma_id with
    | Some l -> l
    | None ->
      let l = Dma_library.init ~double_buffer t.soc ~dma_id ~strategy:t.copy_strategy in
      Hashtbl.replace t.libs dma_id l;
      l
  in
  t.current_lib <- Some l

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* A frame holds a function's values, indexed by vid and sized by its
   [Ir.vid_bound]. An empty slot holds [unbound], told apart by physical
   equality: it is built here at run time and never bound. *)
let unbound = F (Sys.opaque_identity Float.nan)

let bind frame (v : Ir.value) rtv = frame.(v.vid) <- rtv

let lookup frame (v : Ir.value) =
  let rtv = frame.(v.vid) in
  if rtv == unbound then
    error "use of unbound value %%v%d (of type %s)" v.vid (Ty.to_string v.vty);
  rtv

let as_int frame v =
  match lookup frame v with
  | I n -> n
  | F _ | M _ | T _ -> error "expected an integer value"

let as_float frame v =
  match lookup frame v with
  | F f -> f
  | I _ | M _ | T _ -> error "expected a float value"

let as_view frame v =
  match lookup frame v with
  | M view -> view
  | I _ | F _ | T _ -> error "expected a memref value"

let as_token frame v =
  match lookup frame v with
  | T tok -> tok
  | I _ | F _ | M _ -> error "expected an !accel.token value"

(* ------------------------------------------------------------------ *)
(* Runtime entry points                                                *)
(* ------------------------------------------------------------------ *)

let double_buffer_of (o : Ir.op) =
  match Ir.attr o "double_buffer" with
  | Some (Attribute.Bool b) -> b
  | Some _ | None -> false

let arg (o : Ir.op) n = List.nth o.operands n

let bind_result frame (o : Ir.op) rtv =
  match o.results with
  | [] -> ()
  | [ r ] -> bind frame r rtv
  | _ -> error "runtime calls return at most one value"

let strategy_of spec = if spec then Dma_library.Specialized else Dma_library.Generic

(* The one implementation of each entry, for a runtime-level func.call
   and an accel op alike: both carry the entry's operands in the same
   order. No dispatch cost here: the library entry points account for
   their own call overhead, exactly as when the manual drivers call
   them. *)
let exec_entry t frame (o : Ir.op) (entry : Runtime_abi.t) =
  match entry with
  | Dma_init ->
    init_lib t ~double_buffer:(double_buffer_of o) ~dma_id:(as_int frame (arg o 0))
  | Dma_free -> Dma_library.free (lib t)
  | Stage_literal ->
    let word = as_int frame (arg o 0) in
    let offset = as_int frame (arg o 1) in
    bind_result frame o (I (Dma_library.stage_literal (lib t) word ~offset))
  | Copy_to { spec } ->
    let view = as_view frame (arg o 0) in
    let offset = as_int frame (arg o 1) in
    bind_result frame o
      (I (Dma_library.copy_to_dma_region_with (lib t) (strategy_of spec) view ~offset))
  | Flush_send -> Dma_library.flush_send (lib t)
  | Start_recv ->
    Dma_engine.start_recv (Dma_library.engine (lib t)) ~len_words:(as_int frame (arg o 0))
  | Wait_recv -> t.received <- Dma_engine.wait_recv (Dma_library.engine (lib t))
  | Start_send_async -> bind_result frame o (T (Dma_library.start_send (lib t)))
  | Start_recv_async { spec } ->
    let view = as_view frame (arg o 0) in
    let accumulate = Accel.recv_mode_of o = Accel.Accumulate in
    bind_result frame o
      (T (Dma_library.start_recv (lib t) ~strategy:(strategy_of spec) view ~accumulate))
  | Wait -> Dma_library.wait (lib t) (as_token frame (arg o 0))
  | Copy_from { accumulate; spec } ->
    let view = as_view frame (arg o 0) in
    let data = t.received in
    if data == not_received then
      error "%s without a preceding dma_wait_recv" (Runtime_abi.name entry);
    Dma_library.copy_from_data_with (lib t) (strategy_of spec) view ~accumulate data;
    t.received <- not_received;
    bind_result frame o (I 0)

(* At the accel level the interpreter's strategy stands in for the
   Copy_specialization pass. *)
let at_accel_level t entry =
  match (t.copy_strategy, Runtime_abi.specialize entry) with
  | Dma_library.Specialized, Some twin -> twin
  | _ -> entry

(* Pass-through ops run as their entry; sendDim and recv as the entries
   Lower_accel_to_runtime expands them into, minus the constants and
   index casts that lowering adds. *)
let accel_op t frame (o : Ir.op) =
  (match Runtime_abi.of_accel_op o.name with
  | Some entry -> exec_entry t frame o (at_accel_level t entry)
  | None -> (
    match o.name with
    | "accel.sendDim" ->
      let word = Accel.send_dim_extent o in
      let offset = as_int frame (arg o 1) in
      bind_result frame o (I (Dma_library.stage_literal (lib t) word ~offset))
    | "accel.recv" ->
      let view = as_view frame (arg o 0) in
      let strategy = strategy_of (t.copy_strategy = Dma_library.Specialized) in
      let accumulate = Accel.recv_mode_of o = Accel.Accumulate in
      Dma_library.recv_into (lib t) strategy view ~accumulate;
      bind_result frame o (I 0)
    | other -> error "unsupported accel op %s" other));
  if Accel.is_flush o then exec_entry t frame o Flush_send

(* ------------------------------------------------------------------ *)
(* Core execution                                                      *)
(* ------------------------------------------------------------------ *)

let rec exec_op t frame (o : Ir.op) =
  match o.name with
  | "arith.constant" -> (
    Soc.alu t.soc 1;
    match Ir.attr_exn o "value" with
    | Attribute.Int n -> bind frame (Ir.result o) (I n)
    | Attribute.Float f -> bind frame (Ir.result o) (F f)
    | Attribute.Bool b -> bind frame (Ir.result o) (I (if b then 1 else 0))
    | a -> error "invalid constant %s" (Attribute.to_string a))
  | "arith.addi" | "arith.subi" | "arith.muli" -> (
    Soc.alu t.soc 1;
    let a = as_int frame (List.nth o.operands 0) in
    let b = as_int frame (List.nth o.operands 1) in
    let r =
      match o.name with
      | "arith.addi" -> a + b
      | "arith.subi" -> a - b
      | _ -> a * b
    in
    bind frame (Ir.result o) (I r))
  | "arith.addf" | "arith.mulf" ->
    Soc.fpu t.soc 1;
    let a = as_float frame (List.nth o.operands 0) in
    let b = as_float frame (List.nth o.operands 1) in
    let r = if o.name = "arith.addf" then a +. b else a *. b in
    bind frame (Ir.result o) (F r)
  | "arith.index_cast" ->
    Soc.alu t.soc 1;
    bind frame (Ir.result o) (I (as_int frame (List.nth o.operands 0)))
  | "memref.alloc" ->
    let m = Ty.memref_of (Ir.result o).vty in
    let buf =
      Sim_memory.alloc t.soc.Soc.memory ~label:"alloc" (Ty.num_elements m)
    in
    Soc.alu t.soc 20;
    bind frame (Ir.result o) (M (Memref_view.of_buffer buf m.Ty.shape))
  | "memref.dealloc" -> Soc.alu t.soc 5
  (* Offsets and indices are read from the operands as the view walks
     its dims: no list is built. *)
  | "memref.subview" ->
    let src = as_view frame (List.hd o.operands) in
    let sizes = Attribute.get_ints (Ir.attr_exn o "static_sizes") in
    Soc.alu t.soc (2 * List.length sizes);
    bind frame (Ir.result o)
      (M (Memref_view.subview_with src as_int frame (List.tl o.operands) ~sizes))
  | "memref.load" ->
    let view = as_view frame (List.hd o.operands) in
    let li = Memref_view.linear_index_with view as_int frame (List.tl o.operands) in
    Soc.charge_memref_access t.soc view.Memref_view.buf li;
    bind frame (Ir.result o) (F view.Memref_view.buf.Sim_memory.data.(li))
  | "memref.store" -> (
    match o.operands with
    | value :: dst :: indices ->
      let view = as_view frame dst in
      let li = Memref_view.linear_index_with view as_int frame indices in
      Soc.charge_memref_access t.soc view.Memref_view.buf li;
      view.Memref_view.buf.Sim_memory.data.(li) <- as_float frame value
    | _ -> error "malformed memref.store")
  | "scf.for" -> (
    match o.operands with
    | [ lb; ub; step ] ->
      let lb = as_int frame lb and ub = as_int frame ub and step = as_int frame step in
      if step <= 0 then error "scf.for with non-positive step %d" step;
      let block = Ir.single_block o in
      let iv = match block.bargs with [ iv ] -> iv | _ -> error "malformed scf.for" in
      let i = ref lb in
      while !i < ub do
        Soc.loop_iteration t.soc;
        bind frame iv (I !i);
        List.iter (exec_op t frame) block.body;
        i := !i + step
      done
    | _ -> error "malformed scf.for")
  | "scf.yield" -> ()
  | "func.call" -> (
    let callee =
      match Ir.attr_or o "callee" Attribute.Unit with
      | Attribute.Str s -> s
      | _ -> error "func.call without callee"
    in
    match Runtime_abi.of_name callee with
    | Some entry ->
      if Metrics.enabled Metrics.default then
        Metrics.incr "interp.runtime_calls" ~labels:[ ("callee", callee) ];
      exec_entry t frame o entry
    | None -> (
      match Hashtbl.find_opt t.funcs callee with
      | Some f ->
        Soc.call_overhead t.soc;
        let args = List.map (lookup frame) o.operands in
        let results = exec_func t f args in
        List.iter2 (bind frame) o.results results
      | None -> error "call to undefined function %s" callee))
  | "func.return" -> ()
  | name when Accel.is_accel o -> (ignore name; accel_op t frame o)
  | "linalg.generic" ->
    error "linalg.generic reached the interpreter: run a lowering pipeline first"
  | other -> error "unsupported operation %s" other

and exec_func t ((f : Ir.op), bound) args =
  let block = Func.body_of f in
  if List.length block.bargs <> List.length args then
    error "function %s expects %d arguments, got %d" (Func.name_of f)
      (List.length block.bargs) (List.length args);
  let frame = Array.make bound unbound in
  List.iter2 (bind frame) block.bargs args;
  let tracer = t.soc.Soc.tracer in
  if Trace.enabled tracer then
    Trace.with_span tracer ~cat:"interp"
      ~args:[ ("n_ops", Trace.Int (List.length block.body)) ]
      ("func " ^ Func.name_of f)
      (fun () -> List.iter (exec_op t frame) block.body)
  else List.iter (exec_op t frame) block.body;
  match List.rev block.body with
  | last :: _ when last.Ir.name = "func.return" -> List.map (lookup frame) last.operands
  | _ -> []

let invoke t name args =
  match Hashtbl.find_opt t.funcs name with
  | Some f ->
    if Metrics.enabled Metrics.default then
      Metrics.incr "interp.invocations" ~labels:[ ("func", name) ];
    exec_func t f args
  | None -> error "no function named %s" name

(* Structured execution for harnesses (the differential fuzzer): any
   interpreter, runtime-library or simulated-device error comes back as
   [Error message] instead of escaping as an exception. *)
let try_invoke t name args =
  match invoke t name args with
  | results -> Ok results
  | exception Runtime_error msg -> Error ("interpreter: " ^ msg)
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
