type strategy = Generic | Specialized | Bare

type t = {
  soc : Soc.t;
  engine : Dma_engine.t;
  strategy : strategy;
  double_buffer : bool;
}

(* One-time cost of bringing up the DMA driver: opening /dev/mem,
   mmap-ing the input/output windows, first-touch page faults and
   descriptor-ring initialisation. Measured Linux userspace DMA stacks
   spend hundreds of microseconds here, which is what makes offload
   irrelevant for small problems (Fig. 10's crossover). *)
let init_cycles = 400_000.0

let strategy_to_string = function
  | Generic -> "generic"
  | Specialized -> "specialized"
  | Bare -> "bare"

(* Every trace and metric call below that would build arguments or a
   closure first asks whether anything listens, so with tracing and
   metrics off the library allocates nothing for them. *)
let init ?(double_buffer = false) soc ~dma_id ~strategy =
  let engine = Soc.engine soc dma_id in
  if Trace.enabled soc.Soc.tracer then
    Trace.begin_span soc.Soc.tracer ~cat:"init"
      ~args:
        [
          ("dma_id", Trace.Int dma_id);
          ("strategy", Trace.Str (strategy_to_string strategy));
          ("double_buffer", Trace.Bool double_buffer);
        ]
      "dma_init";
  if Metrics.enabled Metrics.default then
    Metrics.incr "runtime.dma_inits"
      ~labels:[ ("strategy", strategy_to_string strategy) ];
  soc.Soc.counters.cycles <- soc.Soc.counters.cycles +. init_cycles;
  Trace.end_span soc.Soc.tracer;
  { soc; engine; strategy; double_buffer }

let free t = t.soc.Soc.counters.cycles <- t.soc.Soc.counters.cycles +. 500.0

let soc t = t.soc
let strategy t = t.strategy
let engine t = t.engine

let stage_literal t literal ~offset =
  Soc.alu t.soc 1;
  Soc.uncached_store_words t.soc 1;
  Dma_engine.stage_inst t.engine ~offset literal;
  offset + 1

(* ------------------------------------------------------------------ *)
(* Host-side copies                                                    *)
(* ------------------------------------------------------------------ *)

(* Every copy charges through int-only Soc calls and moves elements
   between [buf.Sim_memory.data] and the DMA region itself, so no float
   crosses a module boundary (where it would be boxed). The charge
   sequence is the one the element-wise model defines.

   Each copy is a {!Memref_view.fold_runs} walk with a closed run
   function: the library and, for copies in, the received words are its
   environment and the DMA offset or received-word index its
   accumulator, so a copy allocates nothing. *)

(* Generic rank-N element-wise copy: mirrors the recursive MemRef copy
   the paper describes (Sec. IV-B) — per element it reloads size/stride
   metadata, computes a strided address, loads the element through the
   cache and stores it to the uncached DMA region. *)
let generic_out_run t () view li run offset =
  let soc = t.soc in
  let cost = soc.Soc.cost in
  let buf = view.Memref_view.buf in
  for i = li to li + run - 1 do
    Soc.charge_l1_hits soc (int_of_float cost.Cost_model.memref_metadata_accesses);
    Soc.alu soc (int_of_float cost.Cost_model.elementwise_element_overhead_cycles);
    Soc.branch soc 1;
    Soc.charge_access soc (Sim_memory.addr_of buf i);
    Soc.uncached_store_words soc 1;
    Dma_engine.stage_elt t.engine ~offset:(offset + i - li) buf.Sim_memory.data i
  done;
  offset + run

(* Specialised copy: memcpy each maximal contiguous run with vectorised
   loads; requires unit innermost stride (checked by the caller). *)
let specialized_out_run t () view li run offset =
  let soc = t.soc in
  let cost = soc.Soc.cost in
  let buf = view.Memref_view.buf in
  let chunk_elems = cost.Cost_model.vector_chunk_bytes / 4 in
  (* one memcpy call covering the run *)
  soc.Soc.counters.cycles <- soc.Soc.counters.cycles +. cost.Cost_model.memcpy_row_setup_cycles;
  soc.Soc.counters.instructions <- soc.Soc.counters.instructions +. 6.0;
  Soc.branch soc 1;
  Soc.vector_read_range soc buf li run;
  Soc.branch soc (Util.ceil_div run (chunk_elems * 4));
  Soc.uncached_store_words soc run;
  Dma_engine.stage_run t.engine ~offset buf.Sim_memory.data li run;
  offset + run

(* Bare strided loop over a C array: pointer bump + load + store, one
   branch per element; no descriptor traffic, no memcpy call setup. *)
let bare_out_run t () view li run offset =
  let soc = t.soc in
  let buf = view.Memref_view.buf in
  for i = li to li + run - 1 do
    Soc.alu soc 2;
    Soc.branch soc 1;
    Soc.charge_access soc (Sim_memory.addr_of buf i);
    Soc.uncached_store_words soc 1;
    Dma_engine.stage_elt t.engine ~offset:(offset + i - li) buf.Sim_memory.data i
  done;
  offset + run

let rec innermost_unit = function [] -> true | [ s ] -> s = 1 | _ :: rest -> innermost_unit rest
let can_specialize view = innermost_unit view.Memref_view.strides

let note_copy ~dir strategy view =
  if Metrics.enabled Metrics.default then begin
    let labels = [ ("dir", dir); ("strategy", strategy_to_string strategy) ] in
    Metrics.incr "runtime.copies" ~labels;
    Metrics.observe "runtime.copy_words" ~labels
      (float_of_int (Memref_view.num_elements view))
  end

let copy_out t strategy view ~offset =
  note_copy ~dir:"to_accel" strategy view;
  Soc.call_overhead t.soc;
  let run =
    match strategy with
    | Generic -> generic_out_run
    | Bare -> bare_out_run
    | Specialized -> if can_specialize view then specialized_out_run else generic_out_run
  in
  Memref_view.fold_runs view run t () offset

let copy_to_dma_region_with t strategy view ~offset =
  let tracer = t.soc.Soc.tracer in
  if Trace.enabled tracer then
    Trace.with_span tracer ~cat:"copy_to_accel"
      ~args:
        [
          ("words", Trace.Int (Memref_view.num_elements view));
          ("strategy", Trace.Str (strategy_to_string strategy));
        ]
      "copy_to_dma_region"
      (fun () -> copy_out t strategy view ~offset)
  else copy_out t strategy view ~offset

let flush_send t =
  if t.double_buffer then Dma_engine.send_staged_async t.engine
  else Dma_engine.send_staged t.engine

(* The residency fast path: the driver looked the tensor up in a
   device region and found it resident, so instead of staging + sending
   it only pays the lookup branch. *)
let skip_resident t ~words ~what =
  Soc.alu t.soc 2;
  Soc.branch t.soc 1;
  if Metrics.enabled Metrics.default then
    Metrics.incr "runtime.dma_words_skipped"
      ~by:(float_of_int words)
      ~labels:[ ("what", what) ];
  Dma_engine.note_skipped t.engine ~words ~what

(* Copies from the DMA output region back into a memref. [data] holds
   the received words in row-major order; a run function's accumulator
   is the index of the run's first word in it. *)

(* One received element into the view: a cached store, or a cached
   load, an add and a cached store when accumulating. *)
let store_received soc buf li ~accumulate data i =
  let addr = Sim_memory.addr_of buf li in
  let d = buf.Sim_memory.data in
  Soc.charge_access soc addr;
  if accumulate then begin
    Soc.fpu soc 1;
    Soc.charge_access soc addr;
    d.(li) <- d.(li) +. data.(i)
  end
  else d.(li) <- data.(i)

let generic_in_run ~accumulate t data view li run i =
  let soc = t.soc in
  let cost = soc.Soc.cost in
  let buf = view.Memref_view.buf in
  for j = 0 to run - 1 do
    Soc.charge_l1_hits soc (int_of_float cost.Cost_model.memref_metadata_accesses);
    Soc.alu soc (int_of_float cost.Cost_model.elementwise_element_overhead_cycles);
    Soc.branch soc 1;
    Soc.uncached_load_words soc 1;
    store_received soc buf (li + j) ~accumulate data (i + j)
  done;
  i + run

let specialized_in_run ~accumulate t data view li run i =
  let soc = t.soc in
  let cost = soc.Soc.cost in
  let buf = view.Memref_view.buf in
  let d = buf.Sim_memory.data in
  let chunk_elems = cost.Cost_model.vector_chunk_bytes / 4 in
  soc.Soc.counters.cycles <- soc.Soc.counters.cycles +. cost.Cost_model.memcpy_row_setup_cycles;
  soc.Soc.counters.instructions <- soc.Soc.counters.instructions +. 6.0;
  Soc.branch soc 1;
  Soc.uncached_load_words soc run;
  if accumulate then begin
    Soc.vector_read_range soc buf li run;
    (* vectorised adds: 4 lanes per FPU op *)
    let vadds = Util.ceil_div run chunk_elems in
    soc.Soc.counters.cycles <-
      soc.Soc.counters.cycles +. (float_of_int vadds *. cost.Cost_model.fpu_cycles);
    soc.Soc.counters.flops <- soc.Soc.counters.flops +. float_of_int run
  end;
  Soc.vector_write_range soc buf li run;
  Soc.branch soc (Util.ceil_div run (chunk_elems * 4));
  if accumulate then
    for j = 0 to run - 1 do
      d.(li + j) <- d.(li + j) +. data.(i + j)
    done
  else Array.blit data i d li run;
  i + run

let bare_in_run ~accumulate t data view li run i =
  let soc = t.soc in
  let buf = view.Memref_view.buf in
  for j = 0 to run - 1 do
    Soc.alu soc 2;
    Soc.branch soc 1;
    Soc.uncached_load_words soc 1;
    store_received soc buf (li + j) ~accumulate data (i + j)
  done;
  i + run

(* The run functions with [accumulate] applied, made once. *)
let generic_store_run = generic_in_run ~accumulate:false
let generic_add_run = generic_in_run ~accumulate:true
let specialized_store_run = specialized_in_run ~accumulate:false
let specialized_add_run = specialized_in_run ~accumulate:true
let bare_store_run = bare_in_run ~accumulate:false
let bare_add_run = bare_in_run ~accumulate:true

let copy_in t strategy view ~accumulate data =
  note_copy ~dir:"from_accel" strategy view;
  Soc.call_overhead t.soc;
  let run =
    match (strategy, accumulate) with
    | Specialized, false when can_specialize view -> specialized_store_run
    | Specialized, true when can_specialize view -> specialized_add_run
    | (Generic | Specialized), false -> generic_store_run
    | (Generic | Specialized), true -> generic_add_run
    | Bare, false -> bare_store_run
    | Bare, true -> bare_add_run
  in
  ignore (Memref_view.fold_runs view run t data 0)

let copy_from_data_with t strategy view ~accumulate data =
  let tracer = t.soc.Soc.tracer in
  if Trace.enabled tracer then
    Trace.with_span tracer ~cat:"copy_from_accel"
      ~args:
        [
          ("words", Trace.Int (Memref_view.num_elements view));
          ("strategy", Trace.Str (strategy_to_string strategy));
          ("accumulate", Trace.Bool accumulate);
        ]
      "copy_from_data"
      (fun () -> copy_in t strategy view ~accumulate data)
  else copy_in t strategy view ~accumulate data

let recv_into t strategy view ~accumulate =
  flush_send t;
  Dma_engine.start_recv t.engine ~len_words:(Memref_view.num_elements view);
  copy_from_data_with t strategy view ~accumulate (Dma_engine.wait_recv t.engine)

let manual_strategy view =
  if can_specialize view && Memref_view.contiguous_run view >= 4 then Specialized else Bare

(* ------------------------------------------------------------------ *)
(* Non-blocking transfers                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Send_token of Dma_engine.token
  | Recv_token of {
      rt_token : Dma_engine.token;
      rt_view : Memref_view.t;
      rt_accumulate : bool;
      rt_strategy : strategy;
    }

let start_send t =
  Soc.call_overhead t.soc;
  Send_token (Dma_engine.start_send_token t.engine)

let start_recv t ~strategy view ~accumulate =
  Soc.call_overhead t.soc;
  let n = Memref_view.num_elements view in
  let tok = Dma_engine.start_recv_token t.engine ~len_words:n in
  Recv_token { rt_token = tok; rt_view = view; rt_accumulate = accumulate; rt_strategy = strategy }

let wait t token =
  Soc.call_overhead t.soc;
  match token with
  | Send_token tok -> ignore (Dma_engine.wait_token t.engine tok)
  | Recv_token { rt_token; rt_view; rt_accumulate; rt_strategy } ->
    let data = Dma_engine.wait_token t.engine rt_token in
    copy_from_data_with t rt_strategy rt_view ~accumulate:rt_accumulate data
