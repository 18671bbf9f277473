(** Scheduling policies for the inference-serving simulator.

    All three policies are work-conserving — an accelerator never sits
    idle while a dispatchable request is queued — they differ only in
    {e which} queued request(s) the freed accelerator takes next:

    - [Fifo]: strict arrival order. The baseline every serving system
      starts from; long requests head-of-line-block short ones.
    - [Sjf]: shortest predicted job first, where the prediction comes
      from the same analytic cost model the tuner's greedy strategy
      ranks candidates with ({!Heuristics.best}'s [predicted_cycles]).
      Mis-prediction cannot deadlock anything: a wrong estimate only
      reorders the queue.
    - [Batch]: same-shape batching. Queued requests for the same model
      are coalesced into one kernel invocation with a batched leading
      dimension, so the DMA bring-up and any stationary-operand reuse
      are amortised across the group — the only policy that changes
      the total amount of simulated work, not just its order. *)

type t = Fifo | Sjf | Batch

val all : t list
(** In presentation order: [[Fifo; Sjf; Batch]]. *)

val to_string : t -> string
(** ["fifo"], ["sjf"], ["batch"] — the CLI names. *)

val of_string : string -> (t, string) result
(** Case-insensitive parse of a CLI name; [Error] lists the valid
    policies. *)
