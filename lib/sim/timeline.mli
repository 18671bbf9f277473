(** Deterministic discrete-event timeline for asynchronous DMA and
    accelerator activity.

    The simulator's blocking paths charge every cycle to the single
    serial counter in {!Perf_counters}; this module adds the parallel
    half of the story. Each hardware resource that can make progress
    concurrently with the host CPU — a DMA channel, an accelerator
    device — is an {e agent} with its own clock ([busy_until]).
    Asynchronous operations [schedule] work on an agent: the work
    starts no earlier than both the requested time and the agent's
    previous completion (agents are serial internally), and the
    returned finish time is what a later [accel.wait] synchronises the
    host against.

    The reported task-clock becomes the {e makespan}: the maximum over
    the host's serial counter and every agent's [busy_until]. When no
    asynchronous operation is issued the timeline stays empty and the
    makespan degenerates to the serial counter, so blocking runs are
    bit-for-bit identical to the pre-timeline simulator.

    Besides scheduled agent work the timeline records {e marks}:
    host-clock annotations ([mark]) that name what an interval of the
    {e serial} counter was spent on (a PIO transfer, a stall waiting
    for a token, a status-register check). Marks never touch any
    agent's clock — the makespan, and therefore every counter, is
    unaffected — they only feed the critical-path analysis
    ({!Critpath}) with the host half of the event DAG.

    Dependency edges: both [schedule] and [mark] accept [?dep], the
    sequence number of an earlier event this one waits on (a token
    send's transfer for the device compute, a transfer for the host
    stall that waits on it). Together with per-agent program order and
    the host marks this makes the event DAG explicit enough for
    {!Critpath.analyze} to walk a contiguous critical path.

    Determinism: scheduling order is program order. Every event gets a
    monotone sequence number at [schedule]/[mark] time, and {!events}
    sorts by [(start, seq)] — ties on start time are broken by issue
    order, so two runs of the same program produce byte-identical
    event lists. *)

type agent

type event = {
  ev_seq : int;  (** issue order; the tie-breaker *)
  ev_agent : string;
  ev_label : string;
  ev_start : float;  (** CPU cycles *)
  ev_finish : float;
  ev_not_before : float;
      (** the requested earliest start ([schedule]'s [not_before];
          [ev_start] for marks). [ev_start > ev_not_before] means the
          agent's own serialisation, not the dependency, bound the
          start. *)
  ev_dep : int option;  (** [ev_seq] of the event this one waits on *)
  ev_mark : bool;  (** host-clock annotation, not agent work *)
}

type t

val create : unit -> t

val add_agent : t -> name:string -> agent
(** Register a named agent with an idle clock. Agent names are
    display/trace identities; they need not be unique, but the
    simulator uses one agent per DMA channel and per device. *)

val schedule :
  t ->
  agent ->
  ?dep:int ->
  not_before:float ->
  duration:float ->
  label:string ->
  unit ->
  float
(** Book [duration] cycles of work on the agent, starting at
    [max not_before (busy_until agent)]. Advances the agent's clock and
    logs an event; returns the finish time. [dep] names the upstream
    event whose completion [not_before] encodes, when there is one. *)

type span = { mutable span_start : float; mutable span_finish : float }
(** An interval of the serial counter, in CPU cycles. A flat float
    record, so writing its fields allocates nothing. *)

val span : unit -> span
(** A span over [[0, 0]]. *)

val mark : t -> ?dep:int -> agent:string -> label:string -> span -> unit
(** Record a host-clock annotation covering [[span_start, span_finish]]
    of the serial counter. No agent clock moves and the makespan is
    unchanged — blocking runs stay bit-identical. [agent] is a display
    identity (the DMA engine passes ["host"]). The interval comes in a
    caller-owned {!span} rather than as two float arguments, which
    would be boxed on every call across the module boundary: a mark
    without [dep] allocates nothing, except when the log grows. The
    span is read during the call and not kept. *)

val last_seq : t -> int
(** Sequence number of the most recently recorded event ([-1] when the
    log is empty) — how the DMA engine wires [dep] edges to events it
    just scheduled. *)

val busy_until : agent -> float
val makespan : t -> float
(** Latest completion over all agents; [0.] when nothing was scheduled.
    Marks do not count. *)

val events : t -> event list
(** All scheduled events and marks, sorted by [(ev_start, ev_seq)]. *)

val reset : t -> unit
(** Clear the event log and rewind every agent's clock to 0 (agents
    stay registered) — called from [Soc.reset_run_state]. *)
