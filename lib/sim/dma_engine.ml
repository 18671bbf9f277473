type token = int

(* A token-tracked asynchronous transfer. [\[fl_lo, fl_hi)] is the
   staged word range in the input region (sends only) — used to detect
   staging into a half that is still streaming out. *)
type flight = {
  fl_token : token;
  fl_dir : [ `Send | `Recv ];
  fl_lo : int;
  fl_hi : int;
  fl_finish : float;  (* transfer completion, CPU cycles *)
  fl_data : float array;  (* drained output (recv tokens) *)
  fl_seq : int;  (* timeline seq of the transfer event (dep edges) *)
  fl_flow : int;  (* trace flow-arrow id, unique per recording sink *)
}

(* What an empty slot of the flight table holds. *)
let no_flight =
  {
    fl_token = -1;
    fl_dir = `Recv;
    fl_lo = 0;
    fl_hi = 0;
    fl_finish = 0.0;
    fl_data = [||];
    fl_seq = -1;
    fl_flow = 0;
  }

(* The engine's clocks, in CPU cycles. A flat float record: a mutable
   float field of a mixed record points to a box that every write
   re-makes. *)
type clocks = {
  mutable ready_at : float;  (* time at which device output is ready *)
  mutable send_done_at : float;  (* completion time of an async send *)
  per_word : float;  (* [Cost_model.cpu_cycles_per_word], computed once *)
}

type t = {
  cost : Cost_model.t;
  counters : Perf_counters.t;
  tracer : Trace.t;
  dev : Accel_device.t;
  dma_id : int;
  timeline : Timeline.t;
  dma_agent : Timeline.agent;
  accel_agent : Timeline.agent;
  in_region : Axi_word.stream;
  window : Axi_word.window;  (* over [in_region], moved per transaction *)
  out_capacity : int;
  clock : clocks;
  meter : Accel_device.meter;  (* the device's cycles for one transaction *)
  span : Timeline.span;  (* the interval of the next host mark *)
  mutable high_water : int;  (* staged words since last send *)
  mutable batch_lo : int;  (* lowest staged offset since last send *)
  mutable send_offset : int;  (* of the pending blocking send *)
  mutable send_len : int;  (* of the pending blocking send; -1: none *)
  mutable recv_len : int;  (* of the pending blocking receive; -1: none *)
  mutable flights : flight array;
  mutable in_flight : int;
      (* the outstanding transfers are [flights.(0 .. in_flight - 1)],
         in no order; [wait_token] removes its flight, so a token below
         [next_token] that is absent was already waited *)
  mutable next_token : int;
  completions : (float * int) Queue.t;
      (* per-batch device (completion time, compute event seq) pairs,
         pushed in consume order by token sends and popped by (token or
         blocking) receives *)
  mutable last_compute_seq : int;
      (* timeline seq of the most recent device compute event (-1:
         none), for dep edges on receives that drain [ready_at] directly *)
  mutable recv_buf : float array;
      (* the blocking receives' output region: exactly the last
         receive's length, re-made only when that length changes *)
}

let create ~cost ~counters ?tracer ?timeline ?(dma_id = 0) ~device ~in_capacity_words
    ~out_capacity_words () =
  let tracer = match tracer with Some t -> t | None -> Trace.noop in
  let timeline = match timeline with Some tl -> tl | None -> Timeline.create () in
  let in_region = Axi_word.create_stream in_capacity_words in
  {
    cost;
    counters;
    tracer;
    dev = device;
    dma_id;
    timeline;
    dma_agent = Timeline.add_agent timeline ~name:(Printf.sprintf "dma%d" dma_id);
    accel_agent = Timeline.add_agent timeline ~name:device.Accel_device.device_name;
    in_region;
    window = Axi_word.window in_region ~pos:0 ~len:0;
    out_capacity = out_capacity_words;
    clock =
      { ready_at = 0.0; send_done_at = 0.0; per_word = Cost_model.cpu_cycles_per_word cost };
    meter = { Accel_device.accel_cycles = 0.0 };
    span = Timeline.span ();
    high_water = 0;
    batch_lo = max_int;
    send_offset = 0;
    send_len = -1;
    recv_len = -1;
    flights = [||];
    in_flight = 0;
    next_token = 0;
    completions = Queue.create ();
    last_compute_seq = -1;
    recv_buf = [||];
  }

(* Host-clock marks: annotate what an interval of the serial counter
   was spent on, for the critical-path analysis. Marks never move any
   clock or counter — blocking runs stay bit-identical (the timeline's
   makespan ignores marks). Every charge to [t.counters.cycles] below
   that is not plain host compute pairs with exactly one mark whose
   boundaries reuse the very floats the charge computed, so the
   analyzer's exact-contiguity invariant holds. Inlined, so the floats
   go straight into the span and are never boxed. *)
let[@inline] mark t ?dep ~start ~finish label =
  t.span.span_start <- start;
  t.span.span_finish <- finish;
  Timeline.mark t.timeline ?dep ~agent:"host" ~label t.span

let device t = t.dev
let in_capacity_words t = Axi_word.length t.in_region

(* A transfer the residency planner proved unnecessary: nothing is
   staged, no words move, no counters are charged — the saving is a
   genuinely absent transaction. This only leaves a marker on the DMA
   channel's trace track (and a metric) so the timeline shows *why*
   the words are missing. *)
let note_skipped t ~words ~what =
  if Metrics.enabled Metrics.default then
    Metrics.incr "sim.dma_words_skipped"
      ~by:(float_of_int words)
      ~labels:[ ("what", what) ];
  if Trace.enabled t.tracer then
    Trace.instant t.tracer ~cat:"residency"
      ~track:(Trace.dma_channel_track t.dma_id)
      ~args:[ ("words", Trace.Int words); ("what", Trace.Str what) ]
      "residency_skip"

(* Staging charges nothing: the runtime library accounts for the
   host-side copy. Apart from [stage], which tests use, no entry point
   takes a float, so none allocates. *)
let overflow t offset =
  failwith
    (Printf.sprintf "DMA input region overflow: offset %d, capacity %d" offset
       (Axi_word.length t.in_region))

let check_word t offset =
  if offset < 0 || offset >= Axi_word.length t.in_region then overflow t offset

let note_staged t ~offset ~len =
  if offset + len > t.high_water then t.high_water <- offset + len;
  if offset < t.batch_lo then t.batch_lo <- offset

let stage t ~offset word =
  check_word t offset;
  Axi_word.set t.in_region offset word;
  note_staged t ~offset ~len:1

let stage_inst t ~offset literal =
  check_word t offset;
  Axi_word.set_inst t.in_region offset literal;
  note_staged t ~offset ~len:1

(* A block overflows at the first offset word-by-word staging would
   have rejected, before any of its words is staged. *)
let stage_rows t ~offset src pos ~len ~count ~stride ~rows ~row_stride =
  if len > 0 && count > 0 && rows > 0 then begin
    let words = len * count * rows and capacity = Axi_word.length t.in_region in
    if offset < 0 then overflow t offset;
    if offset + words > capacity then overflow t (Int.max offset capacity);
    Axi_word.gather_data t.in_region offset src pos ~len ~count ~stride ~rows ~row_stride;
    note_staged t ~offset ~len:words
  end

let staged_high_water t = t.high_water

(* One charge per DMA event. Every transfer path, blocking, ping-pong
   or token, charges through these four, and each counter bump pairs
   with its registry mirror: the metric totals must stay exactly equal
   to the corresponding Perf_counters fields over a measured run (the
   fuzz oracle asserts it). *)

(* The host programs the engine's registers for one transaction. *)
let charge_program t ~label =
  let t0 = t.counters.cycles in
  t.counters.cycles <- t0 +. t.cost.dma_program_cycles;
  mark t ~start:t0 ~finish:t.counters.cycles label;
  t.counters.instructions <- t.counters.instructions +. 20.0;
  t.counters.dma_transactions <- t.counters.dma_transactions +. 1.0;
  Metrics.incr "sim.dma_transactions"

let count_sent t len =
  let words = float_of_int len in
  t.counters.dma_words_sent <- t.counters.dma_words_sent +. words;
  if Metrics.enabled Metrics.default then begin
    Metrics.incr "sim.dma_words_sent" ~by:words;
    Metrics.observe "sim.dma_send_len_words" words
  end

let count_received t len =
  let words = float_of_int len in
  t.counters.dma_words_received <- t.counters.dma_words_received +. words;
  if Metrics.enabled Metrics.default then begin
    Metrics.incr "sim.dma_words_received" ~by:words;
    Metrics.observe "sim.dma_recv_len_words" words
  end

(* The device consumes the input-region words [pos, pos+len); returns
   the accelerator cycles of the compute they trigger. *)
let[@inline] deliver t ~pos ~len =
  Axi_word.move_window t.window ~pos ~len;
  t.meter.accel_cycles <- 0.0;
  t.dev.Accel_device.consume t.window t.meter;
  let accel_cycles = t.meter.accel_cycles in
  t.counters.accel_busy_cycles <- t.counters.accel_busy_cycles +. accel_cycles;
  if Metrics.enabled Metrics.default then
    Metrics.incr "sim.accel_busy_cycles" ~by:accel_cycles;
  accel_cycles

(* [Cost_model.accel_to_cpu_cycles], written out: a float passed to or
   returned from another module is boxed. *)
let[@inline] to_cpu_cycles t accel_cycles =
  accel_cycles *. t.cost.cpu_freq_mhz /. t.cost.accel_freq_mhz

(* The device starts once the stream has arrived (or when it frees up)
   and runs concurrently with the host from then on; its busy window
   goes on the accelerator track. *)
let[@inline] run_device t ~arrival accel_cycles =
  let start = Float.max arrival t.clock.ready_at in
  t.clock.ready_at <- start +. to_cpu_cycles t accel_cycles;
  if accel_cycles > 0.0 && Trace.enabled t.tracer then
    Trace.complete t.tracer ~cat:"accel_busy" ~track:Trace.accel_track
      ~args:[ ("accel_cycles", Trace.Num accel_cycles) ]
      ~ts:start ~dur:(t.clock.ready_at -. start) t.dev.Accel_device.device_name

(* The blocking transfers' host spans. Like every trace and metric call
   on this path that would build arguments, it is skipped outright when
   nothing listens, so a disabled run allocates nothing for it. *)
let begin_len_span t ~cat name len =
  if Trace.enabled t.tracer then
    Trace.begin_span t.tracer ~cat ~args:[ ("len_words", Trace.Int len) ] name

(* A blocking transfer's host time, in either direction: the host waits
   out the stream of [len] words, then pays one status poll, and each
   interval gets its own mark. *)
let[@inline] charge_blocking t ~label len =
  let transfer = float_of_int len *. t.clock.per_word in
  let t0 = t.counters.cycles in
  t.counters.cycles <- t0 +. transfer +. t.cost.dma_wait_cycles;
  mark t ~start:t0 ~finish:(t0 +. transfer) label;
  mark t ~start:(t0 +. transfer) ~finish:t.counters.cycles "dma_poll"

let start_send t ~offset ~len_words =
  if t.send_len >= 0 then failwith "DMA engine: send already in flight";
  if offset < 0 || len_words < 0 || offset + len_words > Axi_word.length t.in_region then
    failwith "DMA engine: send range exceeds input region";
  begin_len_span t ~cat:"dma_send" "program_send" len_words;
  charge_program t ~label:"program_send";
  Trace.end_span t.tracer;
  t.send_offset <- offset;
  t.send_len <- len_words

let wait_send t =
  let len = t.send_len in
  if len < 0 then failwith "DMA engine: wait_send without a pending send";
  t.send_len <- -1;
  begin_len_span t ~cat:"dma_send" "wait_send" len;
  charge_blocking t ~label:"host_send" len;
  count_sent t len;
  let accel_cycles = deliver t ~pos:t.send_offset ~len in
  run_device t ~arrival:t.counters.cycles accel_cycles;
  Trace.end_span t.tracer

let send_staged t =
  let len = t.high_water in
  if len > 0 then begin
    start_send t ~offset:0 ~len_words:len;
    wait_send t
  end;
  t.high_water <- 0;
  t.batch_lo <- max_int

(* Stall the host until any in-flight ping-pong send completes. *)
let sync_sends t =
  if t.clock.send_done_at > t.counters.cycles then begin
    mark t ~start:t.counters.cycles ~finish:t.clock.send_done_at "send_sync";
    t.counters.cycles <- t.clock.send_done_at
  end

let send_staged_async t =
  let len = t.high_water in
  if len > 0 then begin
    if Trace.enabled t.tracer then
      Trace.begin_span t.tracer ~cat:"dma_send"
        ~args:[ ("len_words", Trace.Int len); ("async", Trace.Bool true) ]
        "send_async";
    (* only two buffer halves: wait out any transfer still in flight *)
    sync_sends t;
    charge_program t ~label:"program_send";
    count_sent t len;
    let transfer = float_of_int len *. t.clock.per_word in
    t.clock.send_done_at <- t.counters.cycles +. transfer;
    let accel_cycles = deliver t ~pos:0 ~len in
    run_device t ~arrival:t.clock.send_done_at accel_cycles;
    Trace.end_span t.tracer
  end;
  t.high_water <- 0;
  t.batch_lo <- max_int

let start_recv t ~len_words =
  if t.recv_len >= 0 then failwith "DMA engine: recv already in flight";
  if len_words < 0 then failwith "DMA engine: negative recv length";
  if len_words > t.out_capacity then failwith "DMA engine: recv exceeds output region";
  begin_len_span t ~cat:"dma_recv" "program_recv" len_words;
  charge_program t ~label:"program_recv";
  Trace.end_span t.tracer;
  t.recv_len <- len_words

let wait_recv t =
  let len = t.recv_len in
  if len < 0 then failwith "DMA engine: wait_recv without a pending recv";
  t.recv_len <- -1;
  begin_len_span t ~cat:"dma_recv" "wait_recv" len;
  (* A blocking receive stalls to [ready_at], which dominates every
     queued completion, so it consumes the whole FIFO; pure-blocking
     runs are untouched — the queue is empty there. *)
  Queue.clear t.completions;
  (* Receives observe completed sends. *)
  sync_sends t;
  (* Stall until the device has finished computing its queued work;
     this is the host's visible wait for the accelerator, so it gets
     its own phase. *)
  Trace.begin_span t.tracer ~cat:"accel_wait" "accel_stall";
  if t.clock.ready_at > t.counters.cycles then begin
    mark t ~start:t.counters.cycles ~finish:t.clock.ready_at "accel_stall";
    t.counters.cycles <- t.clock.ready_at
  end;
  Trace.end_span t.tracer;
  charge_blocking t ~label:"host_recv" len;
  count_received t len;
  if Array.length t.recv_buf <> len then t.recv_buf <- Array.create_float len;
  t.dev.Accel_device.drain_into t.recv_buf len;
  Trace.end_span t.tracer;
  t.recv_buf

(* ------------------------------------------------------------------ *)
(* Non-blocking (token) transfers                                      *)
(* ------------------------------------------------------------------ *)

(* Reading the DMA status register when the transfer has already
   drained: one uncached load and a branch, versus the full
   [dma_wait_cycles] poll loop a blocking wait pays. *)
let status_check_cycles = 50.0

let next_token t =
  let tok = t.next_token in
  t.next_token <- tok + 1;
  tok

let register_flight t fl =
  if t.in_flight = Array.length t.flights then begin
    let grown = Array.make (Int.max 4 (2 * t.in_flight)) no_flight in
    Array.blit t.flights 0 grown 0 t.in_flight;
    t.flights <- grown
  end;
  t.flights.(t.in_flight) <- fl;
  t.in_flight <- t.in_flight + 1

(* Loops rather than closures over the table, so that neither the
   overlap check nor the lookup allocates. *)
let overlaps_send t ~lo ~hi =
  let overlap = ref false in
  for i = 0 to t.in_flight - 1 do
    let fl = t.flights.(i) in
    if fl.fl_dir = `Send && fl.fl_lo < hi && lo < fl.fl_hi then overlap := true
  done;
  !overlap

let flight_index t tok =
  let at = ref (-1) in
  for i = 0 to t.in_flight - 1 do
    if t.flights.(i).fl_token = tok then at := i
  done;
  !at

(* A token transfer's window on its channel track and the origin of
   its flow arrow. Callers test [Trace.enabled] first, so the floats are
   not boxed for a disabled tracer. *)
let note_async t ~name ~len ~tok ~tstart ~transfer ~flow =
  Trace.complete t.tracer ~cat:"dma_async"
    ~track:(Trace.dma_channel_track t.dma_id)
    ~args:[ ("len_words", Trace.Int len); ("token", Trace.Int tok) ]
    ~ts:tstart ~dur:transfer name;
  Trace.flow_start t.tracer
    ~track:(Trace.dma_channel_track t.dma_id)
    ~ts:(tstart +. (transfer /. 2.0))
    ~id:flow "dma_token"

let start_send_token t =
  let lo = if t.batch_lo = max_int then 0 else t.batch_lo in
  let len = max 0 (t.high_water - lo) in
  t.high_water <- 0;
  t.batch_lo <- max_int;
  if overlaps_send t ~lo ~hi:(lo + len) then
    failwith "DMA engine: staged batch overlaps a send still in flight";
  charge_program t ~label:"program_send";
  count_sent t len;
  let transfer = float_of_int len *. t.clock.per_word in
  let tstart = Float.max t.counters.cycles (Timeline.busy_until t.dma_agent) in
  let tfinish =
    Timeline.schedule t.timeline t.dma_agent ~not_before:t.counters.cycles
      ~duration:transfer ~label:"send" ()
  in
  let tseq = Timeline.last_seq t.timeline in
  let accel_cycles = deliver t ~pos:lo ~len in
  if accel_cycles > 0.0 then begin
    let not_before = Float.max tfinish t.clock.ready_at in
    let astart = Float.max not_before (Timeline.busy_until t.accel_agent) in
    let afinish =
      Timeline.schedule t.timeline t.accel_agent ~dep:tseq ~not_before
        ~duration:(to_cpu_cycles t accel_cycles)
        ~label:"compute" ()
    in
    let cseq = Timeline.last_seq t.timeline in
    t.clock.ready_at <- afinish;
    t.last_compute_seq <- cseq;
    Queue.push (afinish, cseq) t.completions;
    if Trace.enabled t.tracer then
      Trace.complete t.tracer ~cat:"accel_busy"
      ~track:(Trace.accel_device_track t.dma_id)
      ~args:[ ("accel_cycles", Trace.Num accel_cycles) ]
      ~ts:astart ~dur:(afinish -. astart) t.dev.Accel_device.device_name
  end;
  let flow = Trace.fresh_flow_id t.tracer in
  let tok = next_token t in
  register_flight t
    {
      fl_token = tok;
      fl_dir = `Send;
      fl_lo = lo;
      fl_hi = lo + len;
      fl_finish = tfinish;
      fl_data = [||];
      fl_seq = tseq;
      fl_flow = flow;
    };
  if Trace.enabled t.tracer then
    note_async t ~name:"async_send" ~len ~tok ~tstart ~transfer ~flow;
  tok

let start_recv_token t ~len_words =
  if len_words > t.out_capacity then failwith "DMA engine: recv exceeds output region";
  charge_program t ~label:"program_recv";
  count_received t len_words;
  (* The batch this receive drains is the oldest undrained compute. *)
  let completion, dep =
    if Queue.is_empty t.completions then
      (t.clock.ready_at, if t.last_compute_seq < 0 then None else Some t.last_compute_seq)
    else
      let finish, cseq = Queue.pop t.completions in
      (finish, Some cseq)
  in
  let transfer = float_of_int len_words *. t.clock.per_word in
  let not_before = Float.max t.counters.cycles completion in
  let tstart = Float.max not_before (Timeline.busy_until t.dma_agent) in
  let tfinish =
    Timeline.schedule t.timeline t.dma_agent ?dep ~not_before ~duration:transfer
      ~label:"recv" ()
  in
  let tseq = Timeline.last_seq t.timeline in
  (* several receives can be in flight, so each keeps its own words *)
  let data = t.dev.Accel_device.drain len_words in
  let flow = Trace.fresh_flow_id t.tracer in
  let tok = next_token t in
  register_flight t
    {
      fl_token = tok;
      fl_dir = `Recv;
      fl_lo = 0;
      fl_hi = 0;
      fl_finish = tfinish;
      fl_data = data;
      fl_seq = tseq;
      fl_flow = flow;
    };
  if Trace.enabled t.tracer then
    note_async t ~name:"async_recv" ~len:len_words ~tok ~tstart ~transfer ~flow;
  tok

let wait_token t tok =
  let i = flight_index t tok in
  if i < 0 then
    failwith
      (if 0 <= tok && tok < t.next_token then "DMA engine: token already waited"
       else "DMA engine: wait on an unknown token");
  let fl = t.flights.(i) in
  let last = t.in_flight - 1 in
  t.flights.(i) <- t.flights.(last);
  t.flights.(last) <- no_flight;
  t.in_flight <- last;
  let now = t.counters.cycles in
  if fl.fl_finish > now then begin
    (* Transfer still in flight: stall to completion and pay the full
       poll, exactly as a blocking wait would. The stall mark carries
       a dep edge to the transfer it shadows, so the critical-path
       walk jumps through it into the agent chain. *)
    t.counters.cycles <- fl.fl_finish +. t.cost.dma_wait_cycles;
    mark t ~dep:fl.fl_seq ~start:now ~finish:fl.fl_finish "token_stall";
    mark t ~start:fl.fl_finish ~finish:t.counters.cycles "dma_poll";
    t.counters.instructions <- t.counters.instructions +. 4.0
  end
  else begin
    t.counters.cycles <- now +. status_check_cycles;
    mark t ~start:now ~finish:t.counters.cycles "status_check";
    t.counters.instructions <- t.counters.instructions +. 4.0
  end;
  if Trace.enabled t.tracer then begin
    Trace.flow_finish t.tracer ~track:Trace.host_track ~id:fl.fl_flow "dma_token";
    Trace.instant t.tracer ~cat:"dma_async" ~args:[ ("token", Trace.Int tok) ] "wait"
  end;
  fl.fl_data

let outstanding_tokens t =
  List.sort compare (List.init t.in_flight (fun i -> t.flights.(i).fl_token))

let reset_device t =
  t.dev.Accel_device.reset_device ();
  t.high_water <- 0;
  t.batch_lo <- max_int;
  t.clock.ready_at <- 0.0;
  t.clock.send_done_at <- 0.0;
  t.send_len <- -1;
  t.recv_len <- -1;
  Array.fill t.flights 0 t.in_flight no_flight;
  t.in_flight <- 0;
  t.next_token <- 0;
  Queue.clear t.completions;
  t.last_compute_seq <- -1
