(** Host-code interpreter: executes a module's functions against the
    simulated {!Soc}, so that the {e generated} driver code is what
    actually drives the DMA engines and accelerator models, and every
    interpreted operation charges the CPU cost model (arithmetic,
    branches, cache accesses, loop overhead).

    Two levels of the lowering are executable, through one executor:
    each {!Runtime_abi} entry has a single implementation on
    {!Dma_library}. At the runtime-call level ([func.call]s as produced
    by [Lower_accel_to_runtime]) a callee resolves to its entry with
    {!Runtime_abi.of_name}, and the ["_spec"] twins select the
    specialised copies chosen at compile time. At the [accel]-dialect
    level each pass-through op runs as its {!Runtime_abi.of_accel_op}
    entry, and [sendDim]/[recv] as the entries they lower to.

    Both levels produce identical results and identical counters apart
    from [cycles] and [instructions] — the accel level does not pay for
    the constants and index casts the lowering adds — an invariant the
    test suite checks.

    Multiple accelerators are supported: each [dma_init] (distinguished
    by its engine id, as in the paper's [dma_init_config]) creates or
    reselects the DMA library for that engine, so a module can drive,
    say, a MatMul engine and a Conv2D engine in one function.

    Allocation: with tracing and metrics off, a runtime call, an accel
    op and a [memref.subview]/[load]/[store] allocate nothing but the
    {!value}s they bind — an [I] or [F] result, a subview's new view
    record — plus what {!Dma_library} allocates for non-blocking
    transfers (tokens, flights and the words a receive drains).
    Operands, indices and attributes are read in place, never copied
    into lists or options. *)

type value =
  | I of int  (** index or i32 *)
  | F of float
  | M of Memref_view.t
  | T of Dma_library.token  (** an in-flight asynchronous transfer *)

exception Runtime_error of string

type t

val create : ?copy_strategy:Dma_library.strategy -> Soc.t -> Ir.op -> t
(** [create soc module_op]. At the [accel]-dialect level,
    [copy_strategy = Specialized] runs the copies as their ["_spec"]
    twins, standing in for the [Copy_specialization] pass; the
    runtime-call level encodes the choice in callee names.
    Default: [Generic]. *)

val invoke : t -> string -> value list -> value list
(** Call a function by name. Memref arguments must be bound to views of
    buffers allocated in the SoC's memory. Raises {!Runtime_error} on
    type/arity mismatches or protocol errors. *)

val try_invoke : t -> string -> value list -> (value list, string) result
(** As {!invoke}, but turns {!Runtime_error} (and the [Failure] /
    [Invalid_argument] raised by device models and views on malformed
    traffic) into [Error] — the form the differential fuzzer's oracle
    classifies as a crash. *)
