type t =
  | Dma_init
  | Dma_free
  | Stage_literal
  | Copy_to of { spec : bool }
  | Flush_send
  | Start_recv
  | Wait_recv
  | Start_send_async
  | Start_recv_async of { spec : bool }
  | Wait
  | Copy_from of { accumulate : bool; spec : bool }

let all =
  [
    Dma_init;
    Dma_free;
    Stage_literal;
    Copy_to { spec = false };
    Flush_send;
    Start_recv;
    Wait_recv;
    Start_send_async;
    Start_recv_async { spec = false };
    Start_recv_async { spec = true };
    Wait;
    Copy_from { accumulate = false; spec = false };
    Copy_from { accumulate = true; spec = false };
    Copy_to { spec = true };
    Copy_from { accumulate = false; spec = true };
    Copy_from { accumulate = true; spec = true };
  ]

(* Literal cases throughout: the interpreter calls [of_name] and
   [specialize] per executed runtime call or accel op, and constant
   results are statically allocated. *)
let name = function
  | Dma_init -> "dma_init"
  | Dma_free -> "dma_free"
  | Stage_literal -> "stage_literal"
  | Copy_to { spec = false } -> "copy_to_dma_region"
  | Copy_to { spec = true } -> "copy_to_dma_region_spec"
  | Flush_send -> "dma_flush_send"
  | Start_recv -> "dma_start_recv"
  | Wait_recv -> "dma_wait_recv"
  | Start_send_async -> "dma_start_send_async"
  | Start_recv_async { spec = false } -> "dma_start_recv_async"
  | Start_recv_async { spec = true } -> "dma_start_recv_async_spec"
  | Wait -> "dma_wait"
  | Copy_from { accumulate = false; spec = false } -> "copy_from_dma_region"
  | Copy_from { accumulate = true; spec = false } -> "copy_from_dma_region_accumulate"
  | Copy_from { accumulate = false; spec = true } -> "copy_from_dma_region_spec"
  | Copy_from { accumulate = true; spec = true } -> "copy_from_dma_region_accumulate_spec"

let of_name = function
  | "dma_init" -> Some Dma_init
  | "dma_free" -> Some Dma_free
  | "stage_literal" -> Some Stage_literal
  | "copy_to_dma_region" -> Some (Copy_to { spec = false })
  | "copy_to_dma_region_spec" -> Some (Copy_to { spec = true })
  | "dma_flush_send" -> Some Flush_send
  | "dma_start_recv" -> Some Start_recv
  | "dma_wait_recv" -> Some Wait_recv
  | "dma_start_send_async" -> Some Start_send_async
  | "dma_start_recv_async" -> Some (Start_recv_async { spec = false })
  | "dma_start_recv_async_spec" -> Some (Start_recv_async { spec = true })
  | "dma_wait" -> Some Wait
  | "copy_from_dma_region" -> Some (Copy_from { accumulate = false; spec = false })
  | "copy_from_dma_region_accumulate" -> Some (Copy_from { accumulate = true; spec = false })
  | "copy_from_dma_region_spec" -> Some (Copy_from { accumulate = false; spec = true })
  | "copy_from_dma_region_accumulate_spec" ->
    Some (Copy_from { accumulate = true; spec = true })
  | _ -> None

let specialize = function
  | Copy_to { spec = false } -> Some (Copy_to { spec = true })
  | Start_recv_async { spec = false } -> Some (Start_recv_async { spec = true })
  | Copy_from { accumulate = false; spec = false } ->
    Some (Copy_from { accumulate = false; spec = true })
  | Copy_from { accumulate = true; spec = false } ->
    Some (Copy_from { accumulate = true; spec = true })
  | Dma_init | Dma_free | Stage_literal | Copy_to _ | Flush_send | Start_recv | Wait_recv
  | Start_send_async | Start_recv_async _ | Wait | Copy_from _ ->
    None

let of_accel_op = function
  | "accel.dma_init" -> Some Dma_init
  | "accel.dma_free" -> Some Dma_free
  | "accel.sendLiteral" | "accel.sendIdx" -> Some Stage_literal
  | "accel.send" -> Some (Copy_to { spec = false })
  | "accel.start_send" -> Some Start_send_async
  | "accel.start_recv" -> Some (Start_recv_async { spec = false })
  | "accel.wait" -> Some Wait
  | _ -> None
