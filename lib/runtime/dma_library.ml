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

(* Each copy is a {!Memref_view.fold_runs} walk with a closed row
   function, called once per row of runs: the library and, for copies
   in, the received words are its environment and the DMA offset or
   received-word index its accumulator, so a copy allocates nothing.

   The charges are the element-wise model's, written out against the
   counters: modules are compiled separately, so a call into [Soc] per
   charge was most of what a copy cost. Each helper below adds to each
   counter field what the [Soc] charge it names adds, and the copies
   charge element by element in the model's order, so every field
   receives the same sequence of float additions as a call per charge
   made, and stays bit-identical. Only the cost constants are read once
   per row; a constant is the float [Soc] computes,
   [float_of_int n *. c] for [n] operations, never a product standing
   for several additions. A row is staged with one
   {!Dma_engine.stage_rows} after its charges. *)

(* [Soc.charge_access] of an access that hit at [level_hit]. *)
let[@inline] charge_level soc (c : Perf_counters.t) ~l2 level_hit =
  c.l1_accesses <- c.l1_accesses +. 1.0;
  if level_hit >= 2 then begin
    c.l1_misses <- c.l1_misses +. 1.0;
    if l2 then c.l2_accesses <- c.l2_accesses +. 1.0
  end;
  if level_hit >= 3 then c.l2_misses <- c.l2_misses +. 1.0;
  c.cycles <- c.cycles +. soc.Soc.access_cycles.(level_hit - 1);
  c.instructions <- c.instructions +. 1.0

(* One cache access at a byte address; [last] is the L1 line of the
   row's previous access (-1 before its first), and the line of this
   one is returned. An access to [last] is an L1 hit that changes no
   cache state ({!Cache.line_shift}), so it is charged without asking
   the cache: a run pays one cache lookup per line, not per element. *)
let[@inline] access soc c ~l2 ~shift last addr =
  let line = addr lsr shift in
  charge_level soc c ~l2 (if line = last then 1 else Cache.access soc.Soc.cache addr);
  line

(* [Sim_memory.addr_of], which raises for an index outside the buffer. *)
let[@inline] addr_of buf i =
  if i < 0 || i >= Array.length buf.Sim_memory.data then Sim_memory.addr_of buf i
  else buf.Sim_memory.base + (i * 4)

(* [Soc.alu], [Soc.uncached_store_words], and the uncached loads of a
   copy in: [n] instructions costing [cycles]. *)
let[@inline] ops (c : Perf_counters.t) cycles n =
  c.cycles <- c.cycles +. cycles;
  c.instructions <- c.instructions +. n

(* [Soc.branch]. *)
let[@inline] branches (c : Perf_counters.t) cycles n =
  c.cycles <- c.cycles +. cycles;
  c.branches <- c.branches +. n;
  c.instructions <- c.instructions +. n

(* [Soc.charge_l1_hits]. *)
let[@inline] l1_hits (c : Perf_counters.t) cycles n =
  c.l1_accesses <- c.l1_accesses +. n;
  c.cycles <- c.cycles +. cycles;
  c.instructions <- c.instructions +. n

(* A vectorised (memcpy-style) read or write of a run that spans
   [chunks] vector chunks of [chunk] elements: one cache access per
   chunk, then one vector op per chunk beyond the accesses. *)
let[@inline] vector_range soc c ~l2 ~shift last buf i ~chunk ~chunks =
  let last = ref last in
  for k = 0 to chunks - 1 do
    last := access soc c ~l2 ~shift !last (addr_of buf (i + (k * chunk)))
  done;
  c.instructions <- c.instructions +. float_of_int chunks;
  !last

let has_l2 soc = Cache.levels soc.Soc.cache >= 2

(* The per-element overhead of the generic copy, as the counts [Soc]
   adds: its metadata loads (L1 hits) and its address arithmetic (ALU
   ops). *)
let metadata_loads cost =
  float_of_int (int_of_float cost.Cost_model.memref_metadata_accesses)

let overhead_ops cost =
  float_of_int (int_of_float cost.Cost_model.elementwise_element_overhead_cycles)

(* Generic rank-N element-wise copy: mirrors the recursive MemRef copy
   the paper describes (Sec. IV-B) — per element it reloads size/stride
   metadata, computes a strided address, loads the element through the
   cache and stores it to the uncached DMA region. *)
let generic_out_row t () view base run count stride offset =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let shift = Cache.line_shift soc.Soc.cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let meta = metadata_loads cost and overhead = overhead_ops cost in
  let meta_cycles = meta *. cost.Cost_model.l1_hit_cycles
  and overhead_cycles = overhead *. cost.Cost_model.alu_cycles in
  for k = 0 to count - 1 do
    let start = base + (k * stride) in
    for i = start to start + run - 1 do
      l1_hits c meta_cycles meta;
      ops c overhead_cycles overhead;
      branches c cost.Cost_model.branch_cycles 1.0;
      last := access soc c ~l2 ~shift !last (addr_of buf i);
      ops c cost.Cost_model.uncached_store_cycles 1.0
    done
  done;
  Dma_engine.stage_rows t.engine ~offset buf.Sim_memory.data base ~len:run ~count ~stride;
  offset + (run * count)

(* Specialised copy: memcpy each maximal contiguous run with vectorised
   loads; requires unit innermost stride (checked by the caller). *)
let specialized_out_row t () view base run count stride offset =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let shift = Cache.line_shift soc.Soc.cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let chunk = cost.Cost_model.vector_chunk_bytes / 4 in
  let chunks = Util.ceil_div run chunk in
  let loop_branches = float_of_int (Util.ceil_div run (chunk * 4)) in
  let loop_cycles = loop_branches *. cost.Cost_model.branch_cycles in
  let words = float_of_int run in
  let store_cycles = words *. cost.Cost_model.uncached_store_cycles in
  for k = 0 to count - 1 do
    let start = base + (k * stride) in
    (* one memcpy call covering the run *)
    ops c cost.Cost_model.memcpy_row_setup_cycles 6.0;
    branches c cost.Cost_model.branch_cycles 1.0;
    last := vector_range soc c ~l2 ~shift !last buf start ~chunk ~chunks;
    branches c loop_cycles loop_branches;
    ops c store_cycles words
  done;
  Dma_engine.stage_rows t.engine ~offset buf.Sim_memory.data base ~len:run ~count ~stride;
  offset + (run * count)

(* Bare strided loop over a C array: pointer bump + load + store, one
   branch per element; no descriptor traffic, no memcpy call setup. *)
let bare_out_row t () view base run count stride offset =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let shift = Cache.line_shift soc.Soc.cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let alu_cycles = 2.0 *. cost.Cost_model.alu_cycles in
  for k = 0 to count - 1 do
    let start = base + (k * stride) in
    for i = start to start + run - 1 do
      ops c alu_cycles 2.0;
      branches c cost.Cost_model.branch_cycles 1.0;
      last := access soc c ~l2 ~shift !last (addr_of buf i);
      ops c cost.Cost_model.uncached_store_cycles 1.0
    done
  done;
  Dma_engine.stage_rows t.engine ~offset buf.Sim_memory.data base ~len:run ~count ~stride;
  offset + (run * count)

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
    | Generic -> generic_out_row
    | Bare -> bare_out_row
    | Specialized -> if can_specialize view then specialized_out_row else generic_out_row
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
   the received words in row-major order; a row function's accumulator
   is the index of the row's first word in it. *)

(* One received element into the view: a cached store, or a cached
   load, an add and a cached store when accumulating. *)
let[@inline] store_received soc c ~l2 ~shift ~fpu_cycles last buf li ~accumulate data i =
  let addr = addr_of buf li in
  let d = buf.Sim_memory.data in
  let line = access soc c ~l2 ~shift last addr in
  if accumulate then begin
    (* [Soc.fpu] of one operation *)
    ops c fpu_cycles 1.0;
    c.flops <- c.flops +. 1.0;
    ignore (access soc c ~l2 ~shift line addr);
    d.(li) <- d.(li) +. data.(i)
  end
  else d.(li) <- data.(i);
  line

let generic_in_row ~accumulate t data view base run count stride i =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let shift = Cache.line_shift soc.Soc.cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let meta = metadata_loads cost and overhead = overhead_ops cost in
  let meta_cycles = meta *. cost.Cost_model.l1_hit_cycles
  and overhead_cycles = overhead *. cost.Cost_model.alu_cycles in
  let fpu_cycles = cost.Cost_model.fpu_cycles in
  for k = 0 to count - 1 do
    let start = base + (k * stride) and first = i + (k * run) in
    for j = 0 to run - 1 do
      l1_hits c meta_cycles meta;
      ops c overhead_cycles overhead;
      branches c cost.Cost_model.branch_cycles 1.0;
      ops c cost.Cost_model.uncached_load_cycles 1.0;
      last :=
        store_received soc c ~l2 ~shift ~fpu_cycles !last buf (start + j) ~accumulate data
          (first + j)
    done
  done;
  i + (run * count)

let specialized_in_row ~accumulate t data view base run count stride i =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let shift = Cache.line_shift soc.Soc.cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let d = buf.Sim_memory.data in
  let chunk = cost.Cost_model.vector_chunk_bytes / 4 in
  let chunks = Util.ceil_div run chunk in
  let loop_branches = float_of_int (Util.ceil_div run (chunk * 4)) in
  let loop_cycles = loop_branches *. cost.Cost_model.branch_cycles in
  let words = float_of_int run in
  let load_cycles = words *. cost.Cost_model.uncached_load_cycles in
  (* vectorised adds: 4 lanes per FPU op *)
  let vadd_cycles = float_of_int chunks *. cost.Cost_model.fpu_cycles in
  for k = 0 to count - 1 do
    let start = base + (k * stride) and first = i + (k * run) in
    ops c cost.Cost_model.memcpy_row_setup_cycles 6.0;
    branches c cost.Cost_model.branch_cycles 1.0;
    ops c load_cycles words;
    if accumulate then begin
      last := vector_range soc c ~l2 ~shift !last buf start ~chunk ~chunks;
      c.cycles <- c.cycles +. vadd_cycles;
      c.flops <- c.flops +. words
    end;
    last := vector_range soc c ~l2 ~shift !last buf start ~chunk ~chunks;
    branches c loop_cycles loop_branches;
    if accumulate then
      for j = 0 to run - 1 do
        d.(start + j) <- d.(start + j) +. data.(first + j)
      done
    else Array.blit data first d start run
  done;
  i + (run * count)

let bare_in_row ~accumulate t data view base run count stride i =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let shift = Cache.line_shift soc.Soc.cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let alu_cycles = 2.0 *. cost.Cost_model.alu_cycles in
  let fpu_cycles = cost.Cost_model.fpu_cycles in
  for k = 0 to count - 1 do
    let start = base + (k * stride) and first = i + (k * run) in
    for j = 0 to run - 1 do
      ops c alu_cycles 2.0;
      branches c cost.Cost_model.branch_cycles 1.0;
      ops c cost.Cost_model.uncached_load_cycles 1.0;
      last :=
        store_received soc c ~l2 ~shift ~fpu_cycles !last buf (start + j) ~accumulate data
          (first + j)
    done
  done;
  i + (run * count)

(* The row functions with [accumulate] applied, made once. *)
let generic_store_row = generic_in_row ~accumulate:false
let generic_add_row = generic_in_row ~accumulate:true
let specialized_store_row = specialized_in_row ~accumulate:false
let specialized_add_row = specialized_in_row ~accumulate:true
let bare_store_row = bare_in_row ~accumulate:false
let bare_add_row = bare_in_row ~accumulate:true

let copy_in t strategy view ~accumulate data =
  note_copy ~dir:"from_accel" strategy view;
  Soc.call_overhead t.soc;
  let run =
    match (strategy, accumulate) with
    | Specialized, false when can_specialize view -> specialized_store_row
    | Specialized, true when can_specialize view -> specialized_add_row
    | (Generic | Specialized), false -> generic_store_row
    | (Generic | Specialized), true -> generic_add_row
    | Bare, false -> bare_store_row
    | Bare, true -> bare_add_row
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
