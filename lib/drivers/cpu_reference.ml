(* Cost recipe (kept in lockstep with the interpreter executing the
   Lower_linalg_to_loops output; test/suite_e2e.ml pins this):
   - entering a loop evaluates its three bound constants: alu 3;
   - each iteration: Soc.loop_iteration;
   - innermost body: one charge_memref_access per operand element read,
     fpu for the multiply-add, one descriptor store (access + set).
   Element values are read from and written to [buf.Sim_memory.data]
   here, after the charge: a float passed to or returned from another
   module is boxed.

   The loop that reduces into one output element charges without
   calling [Soc]: modules are compiled separately, so a call per charge
   was most of what a kernel cost. It loads each counter field it
   charges into a local when it starts, adds each charge to the locals
   in the order of the [Soc] calls its comments name, and writes them
   back when it ends, so every field receives the same float additions
   of the same operands in the same order, and stays bit-identical. The
   locals are refs that no helper or closure sees, which keeps them
   unboxed. The store of the output element follows its load with no
   access in between: it hits L1 and changes no cache state
   ({!Cache.line_shift}), so it is charged as that hit without a lookup.
   A raise inside a reduction (an index outside its buffer) leaves the
   counters as they stood when the reduction started. *)

let extent view d = List.nth view.Memref_view.shape d
let stride view d = List.nth view.Memref_view.strides d

(* [Sim_memory.addr_of], which raises for an index outside the buffer. *)
let[@inline] addr_of buf i =
  if i < 0 || i >= Array.length buf.Sim_memory.data then Sim_memory.addr_of buf i
  else buf.Sim_memory.base + (i * 4)

let matmul soc ~a ~b ~c =
  let m = extent a 0 and k = extent a 1 and n = extent b 1 in
  if extent b 0 <> k || extent c 0 <> m || extent c 1 <> n then
    invalid_arg "Cpu_reference.matmul: shape mismatch";
  let a0 = stride a 0 and a1 = stride a 1 in
  let b0 = stride b 0 and b1 = stride b 1 in
  let c0 = stride c 0 and c1 = stride c 1 in
  let abuf = a.Memref_view.buf and bbuf = b.Memref_view.buf and cbuf = c.Memref_view.buf in
  let ad = abuf.Sim_memory.data and bd = bbuf.Sim_memory.data and cd = cbuf.Sim_memory.data in
  let aoff = a.Memref_view.offset
  and boff = b.Memref_view.offset
  and coff = c.Memref_view.offset in
  let counters = soc.Soc.counters and cost = soc.Soc.cost and cache = soc.Soc.cache in
  let access_cycles = soc.Soc.access_cycles and l2 = Cache.levels cache >= 2 in
  let loop_cycles = cost.Cost_model.loop_overhead_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and descriptor_cycles = 2.0 *. cost.Cost_model.l1_hit_cycles
  and alu_cycles = cost.Cost_model.alu_cycles
  and fma_cycles = 2.0 *. cost.Cost_model.fpu_cycles in
  Soc.alu soc 3;
  for i = 0 to m - 1 do
    Soc.loop_iteration soc;
    Soc.alu soc 3;
    for j = 0 to n - 1 do
      Soc.loop_iteration soc;
      Soc.alu soc 3;
      let ci = coff + (i * c0) + (j * c1) in
      let cycles = ref counters.cycles and instructions = ref counters.instructions in
      let branches = ref counters.branches and l1_accesses = ref counters.l1_accesses in
      let l1_misses = ref counters.l1_misses and l2_accesses = ref counters.l2_accesses in
      let l2_misses = ref counters.l2_misses and flops = ref counters.flops in
      for l = 0 to k - 1 do
        (* [Soc.loop_iteration] *)
        cycles := !cycles +. loop_cycles;
        instructions := !instructions +. 2.0;
        cycles := !cycles +. branch_cycles;
        branches := !branches +. 1.0;
        instructions := !instructions +. 1.0;
        let ai = aoff + (i * a0) + (l * a1) and bi = boff + (l * b0) + (j * b1) in
        (* [Soc.charge_memref_access] of the A, B and C elements *)
        for operand = 0 to 2 do
          let addr =
            if operand = 0 then addr_of abuf ai
            else if operand = 1 then addr_of bbuf bi
            else addr_of cbuf ci
          in
          l1_accesses := !l1_accesses +. 2.0;
          cycles := !cycles +. descriptor_cycles;
          cycles := !cycles +. alu_cycles;
          instructions := !instructions +. 3.0;
          let h = Cache.access cache addr in
          l1_accesses := !l1_accesses +. 1.0;
          if h >= 2 then begin
            l1_misses := !l1_misses +. 1.0;
            if l2 then l2_accesses := !l2_accesses +. 1.0
          end;
          if h >= 3 then l2_misses := !l2_misses +. 1.0;
          cycles := !cycles +. access_cycles.(h - 1);
          instructions := !instructions +. 1.0
        done;
        (* [Soc.fpu] of the multiply-add *)
        cycles := !cycles +. fma_cycles;
        instructions := !instructions +. 2.0;
        flops := !flops +. 2.0;
        (* [Soc.charge_memref_access] of the C store *)
        l1_accesses := !l1_accesses +. 2.0;
        cycles := !cycles +. descriptor_cycles;
        cycles := !cycles +. alu_cycles;
        instructions := !instructions +. 3.0;
        l1_accesses := !l1_accesses +. 1.0;
        cycles := !cycles +. access_cycles.(0);
        instructions := !instructions +. 1.0;
        cd.(ci) <- cd.(ci) +. (ad.(ai) *. bd.(bi))
      done;
      counters.cycles <- !cycles;
      counters.instructions <- !instructions;
      counters.branches <- !branches;
      counters.l1_accesses <- !l1_accesses;
      counters.l1_misses <- !l1_misses;
      counters.l2_accesses <- !l2_accesses;
      counters.l2_misses <- !l2_misses;
      counters.flops <- !flops
    done
  done

(* Row-sampled costing around an exact kernel: the functional result
   is computed exactly on the full problem, while the cost of the [m]
   loop is measured on [sample_rows] rows after two warm-up rows and
   scaled to the rest. *)
let sampled exact soc ~a ~b ~c ~sample_rows =
  let m = extent a 0 and k = extent a 1 and n = extent b 1 in
  if m <= sample_rows * 2 then exact soc ~a ~b ~c
  else begin
    let a_data = Memref_view.to_array a in
    let b_data = Memref_view.to_array b in
    let c_data = Memref_view.to_array c in
    Gold.matmul_acc ~m ~n ~k a_data b_data c_data;
    let row_slice i rows view =
      Memref_view.subview view ~offsets:[ i; 0 ] ~sizes:[ rows; extent view 1 ]
    in
    let run_rows i rows = exact soc ~a:(row_slice i rows a) ~b ~c:(row_slice i rows c) in
    let warm = 2 in
    run_rows 0 warm;
    let before = Perf_counters.copy soc.Soc.counters in
    run_rows warm sample_rows;
    let delta = Perf_counters.diff soc.Soc.counters before in
    let remaining = float_of_int (m - warm - sample_rows) /. float_of_int sample_rows in
    Perf_counters.accumulate soc.Soc.counters (Perf_counters.scale delta remaining);
    (* Overwrite whatever the cost-simulation rows wrote. *)
    Memref_view.fill_from c c_data
  end

(* -O3-style scalar VFP matmul: C[i][j] accumulates in a register, the
   inner loop is unrolled by four, addresses are strength-reduced.
   Per MAC: one cached B access, a quarter of an A access (register
   reuse across the unroll), a 4-cycle dependent fmac, and a quarter of
   the loop overhead. *)
let matmul_optimized_exact soc ~a ~b ~c =
  let m = extent a 0 and k = extent a 1 and n = extent b 1 in
  if extent b 0 <> k || extent c 0 <> m || extent c 1 <> n then
    invalid_arg "Cpu_reference.matmul_optimized: shape mismatch";
  let a0 = stride a 0 and a1 = stride a 1 in
  let b0 = stride b 0 and b1 = stride b 1 in
  let c0 = stride c 0 and c1 = stride c 1 in
  let abuf = a.Memref_view.buf and bbuf = b.Memref_view.buf and cbuf = c.Memref_view.buf in
  let ad = abuf.Sim_memory.data and bd = bbuf.Sim_memory.data and cd = cbuf.Sim_memory.data in
  let aoff = a.Memref_view.offset
  and boff = b.Memref_view.offset
  and coff = c.Memref_view.offset in
  let counters = soc.Soc.counters and cost = soc.Soc.cost and cache = soc.Soc.cache in
  let access_cycles = soc.Soc.access_cycles and l2 = Cache.levels cache >= 2 in
  let loop_cycles = cost.Cost_model.loop_overhead_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and fma_cycles = 2.0 *. cost.Cost_model.fpu_cycles in
  Soc.alu soc 3;
  for i = 0 to m - 1 do
    Soc.loop_iteration soc;
    Soc.alu soc 3;
    for j = 0 to n - 1 do
      Soc.loop_iteration soc;
      Soc.alu soc 3;
      let cycles = ref counters.cycles and instructions = ref counters.instructions in
      let branches = ref counters.branches and l1_accesses = ref counters.l1_accesses in
      let l1_misses = ref counters.l1_misses and l2_accesses = ref counters.l2_accesses in
      let l2_misses = ref counters.l2_misses and flops = ref counters.flops in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        (* unrolled by 4: loop overhead and the A access amortise *)
        let ai = aoff + (i * a0) + (l * a1) and bi = boff + (l * b0) + (j * b1) in
        if l land 3 = 0 then begin
          (* [Soc.loop_iteration], [Soc.charge_access] of the A element *)
          cycles := !cycles +. loop_cycles;
          instructions := !instructions +. 2.0;
          cycles := !cycles +. branch_cycles;
          branches := !branches +. 1.0;
          instructions := !instructions +. 1.0;
          let h = Cache.access cache (addr_of abuf ai) in
          l1_accesses := !l1_accesses +. 1.0;
          if h >= 2 then begin
            l1_misses := !l1_misses +. 1.0;
            if l2 then l2_accesses := !l2_accesses +. 1.0
          end;
          if h >= 3 then l2_misses := !l2_misses +. 1.0;
          cycles := !cycles +. access_cycles.(h - 1);
          instructions := !instructions +. 1.0
        end;
        (* [Soc.charge_access] of the B element *)
        let h = Cache.access cache (addr_of bbuf bi) in
        l1_accesses := !l1_accesses +. 1.0;
        if h >= 2 then begin
          l1_misses := !l1_misses +. 1.0;
          if l2 then l2_accesses := !l2_accesses +. 1.0
        end;
        if h >= 3 then l2_misses := !l2_misses +. 1.0;
        cycles := !cycles +. access_cycles.(h - 1);
        instructions := !instructions +. 1.0;
        (* [Soc.fpu] of the dependent VFP fmac: ~4 cycles *)
        cycles := !cycles +. fma_cycles;
        instructions := !instructions +. 2.0;
        flops := !flops +. 2.0;
        acc := !acc +. (ad.(ai) *. bd.(bi))
      done;
      (* [Soc.charge_access] of the C load, then of the C store *)
      let ci = coff + (i * c0) + (j * c1) in
      let h = Cache.access cache (addr_of cbuf ci) in
      l1_accesses := !l1_accesses +. 1.0;
      if h >= 2 then begin
        l1_misses := !l1_misses +. 1.0;
        if l2 then l2_accesses := !l2_accesses +. 1.0
      end;
      if h >= 3 then l2_misses := !l2_misses +. 1.0;
      cycles := !cycles +. access_cycles.(h - 1);
      instructions := !instructions +. 1.0;
      l1_accesses := !l1_accesses +. 1.0;
      cycles := !cycles +. access_cycles.(0);
      instructions := !instructions +. 1.0;
      cd.(ci) <- cd.(ci) +. !acc;
      counters.cycles <- !cycles;
      counters.instructions <- !instructions;
      counters.branches <- !branches;
      counters.l1_accesses <- !l1_accesses;
      counters.l1_misses <- !l1_misses;
      counters.l2_accesses <- !l2_accesses;
      counters.l2_misses <- !l2_misses;
      counters.flops <- !flops
    done
  done

let matmul_optimized soc ~a ~b ~c ?sample_rows () =
  match sample_rows with
  | None -> matmul_optimized_exact soc ~a ~b ~c
  | Some sample_rows -> sampled matmul_optimized_exact soc ~a ~b ~c ~sample_rows

let conv2d ?(stride = 1) soc ~input ~filter ~output =
  let n = extent input 0 and ic = extent input 1 in
  let ih = extent input 2 and iw = extent input 3 in
  let oc = extent filter 0 and fh = extent filter 2 and fw = extent filter 3 in
  let oh = extent output 2 and ow = extent output 3 in
  if extent filter 1 <> ic || extent output 0 <> n || extent output 1 <> oc then
    invalid_arg "Cpu_reference.conv2d: shape mismatch";
  ignore ih;
  ignore iw;
  let rank4 view = List.compare_length_with view.Memref_view.strides 4 = 0 in
  if not (rank4 input && rank4 filter && rank4 output) then
    invalid_arg "Cpu_reference.conv2d: operands must be rank 4";
  (* [stride] is the convolution's own here *)
  let step view d = List.nth view.Memref_view.strides d in
  let i0 = step input 0 and i1 = step input 1 and i2 = step input 2 and i3 = step input 3 in
  let f0 = step filter 0 and f1 = step filter 1 and f2 = step filter 2 in
  let f3 = step filter 3 in
  let o0 = step output 0 and o1 = step output 1 and o2 = step output 2 in
  let o3 = step output 3 in
  let ioff = input.Memref_view.offset
  and foff = filter.Memref_view.offset
  and ooff = output.Memref_view.offset in
  let ibuf = input.Memref_view.buf
  and fbuf = filter.Memref_view.buf
  and obuf = output.Memref_view.buf in
  let id = ibuf.Sim_memory.data
  and fd = fbuf.Sim_memory.data
  and od = obuf.Sim_memory.data in
  let counters = soc.Soc.counters and cost = soc.Soc.cost and cache = soc.Soc.cache in
  let access_cycles = soc.Soc.access_cycles and l2 = Cache.levels cache >= 2 in
  let loop_cycles = cost.Cost_model.loop_overhead_cycles
  and branch_cycles = cost.Cost_model.branch_cycles
  and bounds_cycles = 3.0 *. cost.Cost_model.alu_cycles
  and addi_cycles = 2.0 *. cost.Cost_model.alu_cycles
  and descriptor_cycles = 2.0 *. cost.Cost_model.l1_hit_cycles
  and alu_cycles = cost.Cost_model.alu_cycles
  and fma_cycles = 2.0 *. cost.Cost_model.fpu_cycles in
  Soc.alu soc 3;
  for bb = 0 to n - 1 do
    Soc.loop_iteration soc;
    Soc.alu soc 3;
    for f = 0 to oc - 1 do
      Soc.loop_iteration soc;
      Soc.alu soc 3;
      for y = 0 to oh - 1 do
        Soc.loop_iteration soc;
        Soc.alu soc 3;
        for x = 0 to ow - 1 do
          Soc.loop_iteration soc;
          Soc.alu soc 3;
          let oi = ooff + (bb * o0) + (f * o1) + (y * o2) + (x * o3) in
          let cycles = ref counters.cycles and instructions = ref counters.instructions in
          let branches = ref counters.branches and l1_accesses = ref counters.l1_accesses in
          let l1_misses = ref counters.l1_misses and l2_accesses = ref counters.l2_accesses in
          let l2_misses = ref counters.l2_misses and flops = ref counters.flops in
          for cc = 0 to ic - 1 do
            (* [Soc.loop_iteration], [Soc.alu] of the dy loop's bounds *)
            cycles := !cycles +. loop_cycles;
            instructions := !instructions +. 2.0;
            cycles := !cycles +. branch_cycles;
            branches := !branches +. 1.0;
            instructions := !instructions +. 1.0;
            cycles := !cycles +. bounds_cycles;
            instructions := !instructions +. 3.0;
            for dy = 0 to fh - 1 do
              (* [Soc.loop_iteration], [Soc.alu] of the dx loop's bounds *)
              cycles := !cycles +. loop_cycles;
              instructions := !instructions +. 2.0;
              cycles := !cycles +. branch_cycles;
              branches := !branches +. 1.0;
              instructions := !instructions +. 1.0;
              cycles := !cycles +. bounds_cycles;
              instructions := !instructions +. 3.0;
              for dx = 0 to fw - 1 do
                (* [Soc.loop_iteration], then [Soc.alu] of the oh+fh and
                   ow+fw the lowered IR computes with addi *)
                cycles := !cycles +. loop_cycles;
                instructions := !instructions +. 2.0;
                cycles := !cycles +. branch_cycles;
                branches := !branches +. 1.0;
                instructions := !instructions +. 1.0;
                cycles := !cycles +. addi_cycles;
                instructions := !instructions +. 2.0;
                let ii =
                  ioff + (bb * i0) + (cc * i1) + (((stride * y) + dy) * i2)
                  + (((stride * x) + dx) * i3)
                in
                let fi = foff + (f * f0) + (cc * f1) + (dy * f2) + (dx * f3) in
                (* [Soc.charge_memref_access] of the input, filter and
                   output elements *)
                for operand = 0 to 2 do
                  let addr =
                    if operand = 0 then addr_of ibuf ii
                    else if operand = 1 then addr_of fbuf fi
                    else addr_of obuf oi
                  in
                  l1_accesses := !l1_accesses +. 2.0;
                  cycles := !cycles +. descriptor_cycles;
                  cycles := !cycles +. alu_cycles;
                  instructions := !instructions +. 3.0;
                  let h = Cache.access cache addr in
                  l1_accesses := !l1_accesses +. 1.0;
                  if h >= 2 then begin
                    l1_misses := !l1_misses +. 1.0;
                    if l2 then l2_accesses := !l2_accesses +. 1.0
                  end;
                  if h >= 3 then l2_misses := !l2_misses +. 1.0;
                  cycles := !cycles +. access_cycles.(h - 1);
                  instructions := !instructions +. 1.0
                done;
                (* [Soc.fpu] of the multiply-add *)
                cycles := !cycles +. fma_cycles;
                instructions := !instructions +. 2.0;
                flops := !flops +. 2.0;
                (* [Soc.charge_memref_access] of the output store *)
                l1_accesses := !l1_accesses +. 2.0;
                cycles := !cycles +. descriptor_cycles;
                cycles := !cycles +. alu_cycles;
                instructions := !instructions +. 3.0;
                l1_accesses := !l1_accesses +. 1.0;
                cycles := !cycles +. access_cycles.(0);
                instructions := !instructions +. 1.0;
                od.(oi) <- od.(oi) +. (id.(ii) *. fd.(fi))
              done
            done
          done;
          counters.cycles <- !cycles;
          counters.instructions <- !instructions;
          counters.branches <- !branches;
          counters.l1_accesses <- !l1_accesses;
          counters.l1_misses <- !l1_misses;
          counters.l2_accesses <- !l2_accesses;
          counters.l2_misses <- !l2_misses;
          counters.flops <- !flops
        done
      done
    done
  done
