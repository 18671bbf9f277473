(** Runtime call replacement (the final lowering of Fig. 9): expand
    every [accel] operation into [func.call]s to the DMA runtime
    library's entry points ({!Runtime_abi}).

    - the pass-through ops become one call each, to the entry
      {!Runtime_abi.of_accel_op} names — the same entry the interpreter
      runs them as at the accel level ([accel.sendIdx]'s index payload
      goes through [arith.index_cast]);
    - [accel.sendDim] -> [@stage_literal] of the dimension's extent;
    - [accel.recv] -> [@dma_flush_send]; [@dma_start_recv(n)];
      [@dma_wait_recv]; [@copy_from_dma_region[_accumulate]];
    - a [flush] marker on a staging op appends [@dma_flush_send].

    The offset-chaining results keep their SSA identities, so no use
    rewriting is needed. All copies lower to the {e generic}
    element-wise entry points; the {!Copy_specialization} pass upgrades
    them afterwards. *)

val pass : Pass.t
