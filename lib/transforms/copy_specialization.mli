(** The MemRef-to-DMA-buffer copy specialisation of Sec. IV-B.

    Rewrites runtime copy calls ([@copy_to_dma_region],
    [@copy_from_dma_region], [@copy_from_dma_region_accumulate],
    [@dma_start_recv_async]) to their ["_spec"] twins
    ({!Runtime_abi.specialize}) when the memref operand's layout has a
    unit innermost stride, i.e. when elements along the last dimension
    are physically adjacent and the copy can be implemented with
    vectorised [memcpy] runs instead of the recursive element-wise
    loop. Strided layouts keep the generic copy — the compiler can see
    this statically from the memref type.

    Running the pipeline without this pass reproduces the paper's
    Fig. 12a (bottlenecked) configuration; with it, Fig. 12b. *)

val pass : Pass.t
