(** The "mlir_CPU" baseline: a native re-implementation of exactly what
    the interpreter executes for the linalg-to-loops lowering, charging
    the same costs per innermost iteration (loop overhead, three
    memref-descriptor scalar loads, multiply-add, one descriptor
    store). Running natively instead of through the interpreter lets
    the benchmarks sweep dims up to 512 in reasonable wall-clock time;
    a test pins the two paths to identical counters on small sizes. *)

val matmul :
  Soc.t -> a:Memref_view.t -> b:Memref_view.t -> c:Memref_view.t -> unit
(** [C += A x B], canonical (m, n, k) loop order, full cost charging. *)

val matmul_optimized :
  Soc.t ->
  a:Memref_view.t ->
  b:Memref_view.t ->
  c:Memref_view.t ->
  ?sample_rows:int ->
  unit ->
  unit
(** An -O3-compiled scalar (VFP) matmul, as the paper's TinyBERT CPU
    baseline: register-blocked accumulation (C and the A element stay
    in registers, 4x-unrolled inner loop, no per-access descriptor
    traffic), costing roughly 6-9 cycles per multiply-accumulate
    depending on cache behaviour — about 3-4x faster than the naive
    {!matmul} lowering. [sample_rows] costs the [m] loop on that many
    rows after two warm-up rows and scales the counters to the rest
    (the functional result is still computed in full); it falls back to
    the exact path when [m <= sample_rows * 2]. *)

val conv2d :
  ?stride:int ->
  Soc.t ->
  input:Memref_view.t ->
  filter:Memref_view.t ->
  output:Memref_view.t ->
  unit
(** Canonical 7-loop NCHW/FCHW convolution, [O += I * W], valid padding,
    the given spatial stride (default 1). *)
