(** The DMA runtime library's entry points as seen from generated IR.

    [Lower_accel_to_runtime] emits [func.call]s to their {!name}s,
    [Copy_specialization] rewrites generic copies to their {!specialize}d
    twins, and the interpreter resolves a callee with {!of_name} and runs
    the entry on {!Dma_library}. The interpreter executes the
    pass-through [accel] ops ({!of_accel_op}) as the very same entries,
    so each entry's semantics has exactly one implementation. *)

type t =
  | Dma_init  (** [(id, inAddr, inSize, outAddr, outSize) -> ()] *)
  | Dma_free  (** [() -> ()] *)
  | Stage_literal  (** [(word i32, offset i32) -> i32] *)
  | Copy_to of { spec : bool }  (** [(memref, offset i32) -> i32] *)
  | Flush_send  (** [() -> ()]: start_send + wait over the staged words *)
  | Start_recv  (** [(len i32) -> ()] *)
  | Wait_recv  (** [() -> ()]: holds the words for the next [Copy_from] *)
  | Start_send_async  (** [() -> !accel.token] *)
  | Start_recv_async of { spec : bool }
      (** [(memref) -> !accel.token]; a [mode] attr on the call says
          whether the wait stores or accumulates the data *)
  | Wait  (** [(!accel.token) -> ()] *)
  | Copy_from of { accumulate : bool; spec : bool }
      (** [(memref, offset i32) -> i32] *)
(** [Start_send_async], [Start_recv_async] and [Wait] are the
    non-blocking halves the double-buffering pass emits. [spec] selects
    the strided-copy specialisation of Sec. IV-B (memcpy of contiguous
    runs), chosen by [Copy_specialization] when the memref layout has a
    unit innermost stride. *)

val all : t list
(** Every entry, once. *)

val name : t -> string
(** The callee symbol, e.g. ["copy_from_dma_region_accumulate_spec"]. *)

val of_name : string -> t option
(** Inverse of {!name}; [None] for any other symbol. *)

val specialize : t -> t option
(** The ["_spec"] twin of a generic copy or async-recv entry; [None] for
    every other entry, including the twins themselves. *)

val of_accel_op : string -> t option
(** The entry an [accel] op runs as when it is a plain pass-through —
    [accel.dma_init], [accel.dma_free], [accel.sendLiteral],
    [accel.sendIdx], [accel.send], [accel.start_send],
    [accel.start_recv] and [accel.wait] — keyed by op name. A staging
    op's [flush] marker adds a [Flush_send] after it. [accel.sendDim]
    and [accel.recv] expand into several entries and map to [None]. *)
