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
   function, called once per block of runs (the runs of a row, for each
   row of the leading dim above it): the library and, for copies in, the
   received words are its environment and the DMA offset or
   received-word index its accumulator, so a copy allocates nothing.

   The charges are the element-wise model's, written out: modules are
   compiled separately, so a call into [Soc] per charge was most of
   what a copy cost, and a load and store of a counter field per charge
   most of the rest. A row function computes its constants and loads
   each counter field it charges into a local once per block, adds the
   charges to the locals element by element in the model's order, and
   writes them back once when the block ends. Each field so receives
   the same float additions of the same operands in the same order as a
   call per charge made, and stays bit-identical. Comments name the
   [Soc] charge that each group of additions mirrors; a constant is the
   float [Soc] computes, [float_of_int n *. c] for [n] operations, never
   a product standing for several additions. The locals are refs that
   no helper or closure sees, which keeps them unboxed: that is why
   every row function writes its charges out.

   A copy out stages its block with one {!Dma_engine.stage_rows} before
   it charges anything: a block that overflows the input region, or
   that reaches outside its buffer, raises uncharged and unstaged, and
   once staging has checked the block's ends its addresses need no
   check. A copy in checks each element's index as it goes; a raise
   there leaves the counters as they stood when the block started. *)

(* The 1-based level an access at byte address [addr] hits, for
   [Soc.charge_access]. [last] is the L1 line of the block's previous
   access (-1 before its first). An access to [last] is an L1 hit that
   changes no cache state ({!Cache.line_shift}), so it is taken without
   asking the cache: a run pays one cache lookup per line, not per
   element. *)
let[@inline] level cache ~shift last addr =
  if addr lsr shift = last then 1 else Cache.access cache addr

(* [Sim_memory.addr_of], which raises for an index outside the buffer:
   for copies in, which stage nothing. *)
let[@inline] addr_of buf i =
  if i < 0 || i >= Array.length buf.Sim_memory.data then Sim_memory.addr_of buf i
  else buf.Sim_memory.base + (i * 4)

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
let generic_out_row t () view base run count stride rows row_stride offset =
  let buf = view.Memref_view.buf in
  Dma_engine.stage_rows t.engine ~offset buf base ~len:run ~count ~stride ~rows ~row_stride;
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let cache = soc.Soc.cache and access_cycles = soc.Soc.access_cycles in
  let shift = Cache.line_shift cache and last = ref (-1) in
  let origin = buf.Sim_memory.base in
  let meta = metadata_loads cost and overhead = overhead_ops cost in
  let meta_cycles = meta *. cost.Cost_model.l1_hit_cycles
  and overhead_cycles = overhead *. cost.Cost_model.alu_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and store_cycles = cost.Cost_model.uncached_store_cycles in
  let cycles = ref c.cycles and instructions = ref c.instructions in
  let branches = ref c.branches and l1_accesses = ref c.l1_accesses in
  let l1_misses = ref c.l1_misses and l2_accesses = ref c.l2_accesses in
  let l2_misses = ref c.l2_misses in
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      let start = base + (r * row_stride) + (k * stride) in
      for i = start to start + run - 1 do
        (* [Soc.charge_l1_hits] of the metadata loads *)
        l1_accesses := !l1_accesses +. meta;
        cycles := !cycles +. meta_cycles;
        instructions := !instructions +. meta;
        (* [Soc.alu] of the address arithmetic *)
        cycles := !cycles +. overhead_cycles;
        instructions := !instructions +. overhead;
        (* [Soc.branch] *)
        cycles := !cycles +. branch_cycles;
        branches := !branches +. 1.0;
        instructions := !instructions +. 1.0;
        (* [Soc.charge_access] of the element *)
        let addr = origin + (i * 4) in
        let h = level cache ~shift !last addr in
        last := addr lsr shift;
        l1_accesses := !l1_accesses +. 1.0;
        if h >= 2 then begin
          l1_misses := !l1_misses +. 1.0;
          if l2 then l2_accesses := !l2_accesses +. 1.0
        end;
        if h >= 3 then l2_misses := !l2_misses +. 1.0;
        cycles := !cycles +. access_cycles.(h - 1);
        instructions := !instructions +. 1.0;
        (* [Soc.uncached_store_words] of the element *)
        cycles := !cycles +. store_cycles;
        instructions := !instructions +. 1.0
      done
    done
  done;
  c.cycles <- !cycles;
  c.instructions <- !instructions;
  c.branches <- !branches;
  c.l1_accesses <- !l1_accesses;
  c.l1_misses <- !l1_misses;
  c.l2_accesses <- !l2_accesses;
  c.l2_misses <- !l2_misses;
  offset + (run * count * rows)

(* Specialised copy: memcpy each maximal contiguous run with vectorised
   loads, one cache access per vector chunk; requires unit innermost
   stride (checked by the caller). *)
let specialized_out_row t () view base run count stride rows row_stride offset =
  let buf = view.Memref_view.buf in
  Dma_engine.stage_rows t.engine ~offset buf base ~len:run ~count ~stride ~rows ~row_stride;
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let cache = soc.Soc.cache and access_cycles = soc.Soc.access_cycles in
  let shift = Cache.line_shift cache and last = ref (-1) in
  let origin = buf.Sim_memory.base in
  let chunk = cost.Cost_model.vector_chunk_bytes / 4 in
  let chunks = Util.ceil_div run chunk in
  let vector_ops = float_of_int chunks in
  let loop_branches = float_of_int (Util.ceil_div run (chunk * 4)) in
  let loop_cycles = loop_branches *. cost.Cost_model.branch_cycles in
  let words = float_of_int run in
  let store_cycles = words *. cost.Cost_model.uncached_store_cycles in
  let cycles = ref c.cycles and instructions = ref c.instructions in
  let branches = ref c.branches and l1_accesses = ref c.l1_accesses in
  let l1_misses = ref c.l1_misses and l2_accesses = ref c.l2_accesses in
  let l2_misses = ref c.l2_misses in
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      let start = base + (r * row_stride) + (k * stride) in
      (* one memcpy call covering the run: [Soc.alu], [Soc.branch] *)
      cycles := !cycles +. cost.Cost_model.memcpy_row_setup_cycles;
      instructions := !instructions +. 6.0;
      cycles := !cycles +. cost.Cost_model.branch_cycles;
      branches := !branches +. 1.0;
      instructions := !instructions +. 1.0;
      (* [Soc.charge_access] of each chunk, then one vector op per chunk *)
      for j = 0 to chunks - 1 do
        let addr = origin + ((start + (j * chunk)) * 4) in
        let h = level cache ~shift !last addr in
        last := addr lsr shift;
        l1_accesses := !l1_accesses +. 1.0;
        if h >= 2 then begin
          l1_misses := !l1_misses +. 1.0;
          if l2 then l2_accesses := !l2_accesses +. 1.0
        end;
        if h >= 3 then l2_misses := !l2_misses +. 1.0;
        cycles := !cycles +. access_cycles.(h - 1);
        instructions := !instructions +. 1.0
      done;
      instructions := !instructions +. vector_ops;
      (* [Soc.branch] of the unrolled loop, [Soc.uncached_store_words] *)
      cycles := !cycles +. loop_cycles;
      branches := !branches +. loop_branches;
      instructions := !instructions +. loop_branches;
      cycles := !cycles +. store_cycles;
      instructions := !instructions +. words
    done
  done;
  c.cycles <- !cycles;
  c.instructions <- !instructions;
  c.branches <- !branches;
  c.l1_accesses <- !l1_accesses;
  c.l1_misses <- !l1_misses;
  c.l2_accesses <- !l2_accesses;
  c.l2_misses <- !l2_misses;
  offset + (run * count * rows)

(* Bare strided loop over a C array: pointer bump + load + store, one
   branch per element; no descriptor traffic, no memcpy call setup. *)
let bare_out_row t () view base run count stride rows row_stride offset =
  let buf = view.Memref_view.buf in
  Dma_engine.stage_rows t.engine ~offset buf base ~len:run ~count ~stride ~rows ~row_stride;
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let cache = soc.Soc.cache and access_cycles = soc.Soc.access_cycles in
  let shift = Cache.line_shift cache and last = ref (-1) in
  let origin = buf.Sim_memory.base in
  let alu_cycles = 2.0 *. cost.Cost_model.alu_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and store_cycles = cost.Cost_model.uncached_store_cycles in
  let cycles = ref c.cycles and instructions = ref c.instructions in
  let branches = ref c.branches and l1_accesses = ref c.l1_accesses in
  let l1_misses = ref c.l1_misses and l2_accesses = ref c.l2_accesses in
  let l2_misses = ref c.l2_misses in
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      let start = base + (r * row_stride) + (k * stride) in
      for i = start to start + run - 1 do
        (* [Soc.alu] of the pointer bump, [Soc.branch] *)
        cycles := !cycles +. alu_cycles;
        instructions := !instructions +. 2.0;
        cycles := !cycles +. branch_cycles;
        branches := !branches +. 1.0;
        instructions := !instructions +. 1.0;
        (* [Soc.charge_access] of the element *)
        let addr = origin + (i * 4) in
        let h = level cache ~shift !last addr in
        last := addr lsr shift;
        l1_accesses := !l1_accesses +. 1.0;
        if h >= 2 then begin
          l1_misses := !l1_misses +. 1.0;
          if l2 then l2_accesses := !l2_accesses +. 1.0
        end;
        if h >= 3 then l2_misses := !l2_misses +. 1.0;
        cycles := !cycles +. access_cycles.(h - 1);
        instructions := !instructions +. 1.0;
        (* [Soc.uncached_store_words] of the element *)
        cycles := !cycles +. store_cycles;
        instructions := !instructions +. 1.0
      done
    done
  done;
  c.cycles <- !cycles;
  c.instructions <- !instructions;
  c.branches <- !branches;
  c.l1_accesses <- !l1_accesses;
  c.l1_misses <- !l1_misses;
  c.l2_accesses <- !l2_accesses;
  c.l2_misses <- !l2_misses;
  offset + (run * count * rows)

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
   is the index of the block's first word in it. Each received element is
   a cached store into the view, or, when accumulating, a cached load,
   an add and a cached store. *)

let generic_in_row ~accumulate t data view base run count stride rows row_stride i =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let cache = soc.Soc.cache and access_cycles = soc.Soc.access_cycles in
  let shift = Cache.line_shift cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let d = buf.Sim_memory.data in
  let meta = metadata_loads cost and overhead = overhead_ops cost in
  let meta_cycles = meta *. cost.Cost_model.l1_hit_cycles
  and overhead_cycles = overhead *. cost.Cost_model.alu_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and load_cycles = cost.Cost_model.uncached_load_cycles
  and fpu_cycles = cost.Cost_model.fpu_cycles in
  let cycles = ref c.cycles and instructions = ref c.instructions in
  let branches = ref c.branches and l1_accesses = ref c.l1_accesses in
  let l1_misses = ref c.l1_misses and l2_accesses = ref c.l2_accesses in
  let l2_misses = ref c.l2_misses and flops = ref c.flops in
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      let start = base + (r * row_stride) + (k * stride)
      and first = i + (((r * count) + k) * run) in
      for j = 0 to run - 1 do
        (* [Soc.charge_l1_hits] of the metadata loads *)
        l1_accesses := !l1_accesses +. meta;
        cycles := !cycles +. meta_cycles;
        instructions := !instructions +. meta;
        (* [Soc.alu] of the address arithmetic, [Soc.branch] *)
        cycles := !cycles +. overhead_cycles;
        instructions := !instructions +. overhead;
        cycles := !cycles +. branch_cycles;
        branches := !branches +. 1.0;
        instructions := !instructions +. 1.0;
        (* the uncached load of the received word *)
        cycles := !cycles +. load_cycles;
        instructions := !instructions +. 1.0;
        (* [Soc.charge_access] of the element *)
        let li = start + j in
        let addr = addr_of buf li in
        let h = level cache ~shift !last addr in
        last := addr lsr shift;
        l1_accesses := !l1_accesses +. 1.0;
        if h >= 2 then begin
          l1_misses := !l1_misses +. 1.0;
          if l2 then l2_accesses := !l2_accesses +. 1.0
        end;
        if h >= 3 then l2_misses := !l2_misses +. 1.0;
        cycles := !cycles +. access_cycles.(h - 1);
        instructions := !instructions +. 1.0;
        if accumulate then begin
          (* [Soc.fpu] of the add, then [Soc.charge_access] of the store:
             an L1 hit on the line just loaded *)
          cycles := !cycles +. fpu_cycles;
          instructions := !instructions +. 1.0;
          flops := !flops +. 1.0;
          l1_accesses := !l1_accesses +. 1.0;
          cycles := !cycles +. access_cycles.(0);
          instructions := !instructions +. 1.0;
          d.(li) <- d.(li) +. data.(first + j)
        end
        else d.(li) <- data.(first + j)
      done
    done
  done;
  c.cycles <- !cycles;
  c.instructions <- !instructions;
  c.branches <- !branches;
  c.l1_accesses <- !l1_accesses;
  c.l1_misses <- !l1_misses;
  c.l2_accesses <- !l2_accesses;
  c.l2_misses <- !l2_misses;
  c.flops <- !flops;
  i + (run * count * rows)

let specialized_in_row ~accumulate t data view base run count stride rows row_stride i =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let cache = soc.Soc.cache and access_cycles = soc.Soc.access_cycles in
  let shift = Cache.line_shift cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let d = buf.Sim_memory.data in
  let chunk = cost.Cost_model.vector_chunk_bytes / 4 in
  let chunks = Util.ceil_div run chunk in
  let vector_ops = float_of_int chunks in
  let loop_branches = float_of_int (Util.ceil_div run (chunk * 4)) in
  let loop_cycles = loop_branches *. cost.Cost_model.branch_cycles in
  let words = float_of_int run in
  let load_cycles = words *. cost.Cost_model.uncached_load_cycles in
  (* vectorised adds: 4 lanes per FPU op *)
  let vadd_cycles = float_of_int chunks *. cost.Cost_model.fpu_cycles in
  let cycles = ref c.cycles and instructions = ref c.instructions in
  let branches = ref c.branches and l1_accesses = ref c.l1_accesses in
  let l1_misses = ref c.l1_misses and l2_accesses = ref c.l2_accesses in
  let l2_misses = ref c.l2_misses and flops = ref c.flops in
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      let start = base + (r * row_stride) + (k * stride)
      and first = i + (((r * count) + k) * run) in
      (* one memcpy call covering the run: [Soc.alu], [Soc.branch], then
         the uncached loads of the received words *)
      cycles := !cycles +. cost.Cost_model.memcpy_row_setup_cycles;
      instructions := !instructions +. 6.0;
      cycles := !cycles +. cost.Cost_model.branch_cycles;
      branches := !branches +. 1.0;
      instructions := !instructions +. 1.0;
      cycles := !cycles +. load_cycles;
      instructions := !instructions +. words;
      (* An accumulating copy reads the run's chunks and adds before it
         writes them: per pass, [Soc.charge_access] of each chunk, then
         one vector op per chunk. *)
      for pass = (if accumulate then 0 else 1) to 1 do
        for j = 0 to chunks - 1 do
          let addr = addr_of buf (start + (j * chunk)) in
          let h = level cache ~shift !last addr in
          last := addr lsr shift;
          l1_accesses := !l1_accesses +. 1.0;
          if h >= 2 then begin
            l1_misses := !l1_misses +. 1.0;
            if l2 then l2_accesses := !l2_accesses +. 1.0
          end;
          if h >= 3 then l2_misses := !l2_misses +. 1.0;
          cycles := !cycles +. access_cycles.(h - 1);
          instructions := !instructions +. 1.0
        done;
        instructions := !instructions +. vector_ops;
        if pass = 0 then begin
          cycles := !cycles +. vadd_cycles;
          flops := !flops +. words
        end
      done;
      (* [Soc.branch] of the unrolled loop *)
      cycles := !cycles +. loop_cycles;
      branches := !branches +. loop_branches;
      instructions := !instructions +. loop_branches;
      if accumulate then
        for j = 0 to run - 1 do
          d.(start + j) <- d.(start + j) +. data.(first + j)
        done
      else Array.blit data first d start run
    done
  done;
  c.cycles <- !cycles;
  c.instructions <- !instructions;
  c.branches <- !branches;
  c.l1_accesses <- !l1_accesses;
  c.l1_misses <- !l1_misses;
  c.l2_accesses <- !l2_accesses;
  c.l2_misses <- !l2_misses;
  c.flops <- !flops;
  i + (run * count * rows)

let bare_in_row ~accumulate t data view base run count stride rows row_stride i =
  let soc = t.soc in
  let c = soc.Soc.counters and cost = soc.Soc.cost and l2 = has_l2 soc in
  let cache = soc.Soc.cache and access_cycles = soc.Soc.access_cycles in
  let shift = Cache.line_shift cache and last = ref (-1) in
  let buf = view.Memref_view.buf in
  let d = buf.Sim_memory.data in
  let alu_cycles = 2.0 *. cost.Cost_model.alu_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and load_cycles = cost.Cost_model.uncached_load_cycles
  and fpu_cycles = cost.Cost_model.fpu_cycles in
  let cycles = ref c.cycles and instructions = ref c.instructions in
  let branches = ref c.branches and l1_accesses = ref c.l1_accesses in
  let l1_misses = ref c.l1_misses and l2_accesses = ref c.l2_accesses in
  let l2_misses = ref c.l2_misses and flops = ref c.flops in
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      let start = base + (r * row_stride) + (k * stride)
      and first = i + (((r * count) + k) * run) in
      for j = 0 to run - 1 do
        (* [Soc.alu] of the pointer bump, [Soc.branch], and the uncached
           load of the received word *)
        cycles := !cycles +. alu_cycles;
        instructions := !instructions +. 2.0;
        cycles := !cycles +. branch_cycles;
        branches := !branches +. 1.0;
        instructions := !instructions +. 1.0;
        cycles := !cycles +. load_cycles;
        instructions := !instructions +. 1.0;
        (* [Soc.charge_access] of the element *)
        let li = start + j in
        let addr = addr_of buf li in
        let h = level cache ~shift !last addr in
        last := addr lsr shift;
        l1_accesses := !l1_accesses +. 1.0;
        if h >= 2 then begin
          l1_misses := !l1_misses +. 1.0;
          if l2 then l2_accesses := !l2_accesses +. 1.0
        end;
        if h >= 3 then l2_misses := !l2_misses +. 1.0;
        cycles := !cycles +. access_cycles.(h - 1);
        instructions := !instructions +. 1.0;
        if accumulate then begin
          (* [Soc.fpu] of the add, then [Soc.charge_access] of the store:
             an L1 hit on the line just loaded *)
          cycles := !cycles +. fpu_cycles;
          instructions := !instructions +. 1.0;
          flops := !flops +. 1.0;
          l1_accesses := !l1_accesses +. 1.0;
          cycles := !cycles +. access_cycles.(0);
          instructions := !instructions +. 1.0;
          d.(li) <- d.(li) +. data.(first + j)
        end
        else d.(li) <- data.(first + j)
      done
    done
  done;
  c.cycles <- !cycles;
  c.instructions <- !instructions;
  c.branches <- !branches;
  c.l1_accesses <- !l1_accesses;
  c.l1_misses <- !l1_misses;
  c.l2_accesses <- !l2_accesses;
  c.l2_misses <- !l2_misses;
  c.flops <- !flops;
  i + (run * count * rows)

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
