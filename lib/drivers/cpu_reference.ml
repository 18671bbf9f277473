(* Cost recipe (kept in lockstep with the interpreter executing the
   Lower_linalg_to_loops output; test/test_cross_checks.ml pins this):
   - entering a loop evaluates its three bound constants: alu 3;
   - each iteration: Soc.loop_iteration;
   - innermost body: one charge_memref_access per operand element read,
     fpu for the multiply-add, one descriptor store (access + set).
   Element values are read from and written to [buf.Sim_memory.data]
   here, after the charge: a float passed to or returned from another
   module is boxed. *)

let extent view d = List.nth view.Memref_view.shape d
let stride view d = List.nth view.Memref_view.strides d

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
  Soc.alu soc 3;
  for i = 0 to m - 1 do
    Soc.loop_iteration soc;
    Soc.alu soc 3;
    for j = 0 to n - 1 do
      Soc.loop_iteration soc;
      Soc.alu soc 3;
      for l = 0 to k - 1 do
        Soc.loop_iteration soc;
        let ai = aoff + (i * a0) + (l * a1) and bi = boff + (l * b0) + (j * b1) in
        let ci = coff + (i * c0) + (j * c1) in
        Soc.charge_memref_access soc abuf ai;
        Soc.charge_memref_access soc bbuf bi;
        Soc.charge_memref_access soc cbuf ci;
        Soc.fpu soc 2;
        Soc.charge_memref_access soc cbuf ci;
        cd.(ci) <- cd.(ci) +. (ad.(ai) *. bd.(bi))
      done
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
  Soc.alu soc 3;
  for i = 0 to m - 1 do
    Soc.loop_iteration soc;
    Soc.alu soc 3;
    for j = 0 to n - 1 do
      Soc.loop_iteration soc;
      Soc.alu soc 3;
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        (* unrolled by 4: loop overhead and the A access amortise *)
        let ai = aoff + (i * a0) + (l * a1) and bi = boff + (l * b0) + (j * b1) in
        if l land 3 = 0 then begin
          Soc.loop_iteration soc;
          Soc.charge_access soc (Sim_memory.addr_of abuf ai)
        end;
        Soc.charge_access soc (Sim_memory.addr_of bbuf bi);
        (* dependent VFP fmac: ~4 cycles *)
        Soc.fpu soc 2;
        acc := !acc +. (ad.(ai) *. bd.(bi))
      done;
      let ci = coff + (i * c0) + (j * c1) in
      Soc.charge_access soc (Sim_memory.addr_of cbuf ci);
      Soc.charge_access soc (Sim_memory.addr_of cbuf ci);
      cd.(ci) <- cd.(ci) +. !acc
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
  let strides4 view =
    match view.Memref_view.strides with
    | [ s0; s1; s2; s3 ] -> (view.Memref_view.offset, s0, s1, s2, s3)
    | _ -> invalid_arg "Cpu_reference.conv2d: operands must be rank 4"
  in
  let ioff, i0, i1, i2, i3 = strides4 input in
  let foff, f0, f1, f2, f3 = strides4 filter in
  let ooff, o0, o1, o2, o3 = strides4 output in
  let ibuf = input.Memref_view.buf
  and fbuf = filter.Memref_view.buf
  and obuf = output.Memref_view.buf in
  let id = ibuf.Sim_memory.data
  and fd = fbuf.Sim_memory.data
  and od = obuf.Sim_memory.data in
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
          for cc = 0 to ic - 1 do
            Soc.loop_iteration soc;
            Soc.alu soc 3;
            for dy = 0 to fh - 1 do
              Soc.loop_iteration soc;
              Soc.alu soc 3;
              for dx = 0 to fw - 1 do
                Soc.loop_iteration soc;
                ignore ih;
                ignore iw;
                (* the lowered IR computes oh+fh and ow+fw with addi *)
                Soc.alu soc 2;
                let ii =
                  ioff + (bb * i0) + (cc * i1) + (((stride * y) + dy) * i2)
                  + (((stride * x) + dx) * i3)
                in
                let fi = foff + (f * f0) + (cc * f1) + (dy * f2) + (dx * f3) in
                Soc.charge_memref_access soc ibuf ii;
                Soc.charge_memref_access soc fbuf fi;
                Soc.charge_memref_access soc obuf oi;
                Soc.fpu soc 2;
                Soc.charge_memref_access soc obuf oi;
                od.(oi) <- od.(oi) +. (id.(ii) *. fd.(fi))
              done
            done
          done
        done
      done
    done
  done
