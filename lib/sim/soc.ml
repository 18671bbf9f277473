type t = {
  memory : Sim_memory.t;
  cache : Cache.t;
  counters : Perf_counters.t;
  cost : Cost_model.t;
  access_cycles : float array;
  tracer : Trace.t;
  timeline : Timeline.t;
  mutable engines : (int * Dma_engine.t) list;
  mutable host_serial : float option;
}

(* The cycle cost of an access that hit at level [h] is entry [h - 1];
   the last entry, [levels + 1], is DRAM. An L2 lookup is charged only
   when there is an L2, and DRAM exactly when the last level missed. *)
let access_cycles (cost : Cost_model.t) levels =
  let table = Array.make (levels + 1) 0.0 in
  for h = 1 to levels + 1 do
    table.(h - 1) <-
      cost.l1_hit_cycles
      +. (if h >= 2 && levels >= 2 then cost.l2_hit_cycles else 0.0)
      +. if h = levels + 1 then cost.dram_cycles else 0.0
  done;
  table

let create ?(cost = Cost_model.default)
    ?(cache_geometries = [ Cache.cortex_a9_l1; Cache.cortex_a9_l2 ])
    ?(tracer = Trace.create ()) () =
  let cache = Cache.create cache_geometries in
  {
    memory = Sim_memory.create ();
    cache;
    counters = Perf_counters.create ();
    cost;
    access_cycles = access_cycles cost (Cache.levels cache);
    tracer;
    timeline = Timeline.create ();
    engines = [];
    host_serial = None;
  }

let enable_tracing t =
  Trace.enable t.tracer
    ~clock:(fun () -> t.counters.Perf_counters.cycles)
    ~snapshot:(fun () -> Perf_counters.fields t.counters);
  t.tracer

let attach_engine t ~dma_id ~device ~in_capacity_words ~out_capacity_words =
  let engine =
    Dma_engine.create ~cost:t.cost ~counters:t.counters ~tracer:t.tracer
      ~timeline:t.timeline ~dma_id ~device ~in_capacity_words ~out_capacity_words ()
  in
  t.engines <- (dma_id, engine) :: List.remove_assoc dma_id t.engines;
  engine

let engine t dma_id =
  match List.assoc_opt dma_id t.engines with
  | Some e -> e
  | None -> failwith (Printf.sprintf "Soc: no DMA engine with id %d" dma_id)

let reset_run_state t =
  Perf_counters.reset t.counters;
  Cache.flush t.cache;
  (* The trace clock restarts from 0 with the counters; events recorded
     before the reset would break timestamp monotonicity. *)
  Trace.clear t.tracer;
  Timeline.reset t.timeline;
  t.host_serial <- None;
  List.iter (fun (_, e) -> Dma_engine.reset_device e) t.engines

let task_clock_cycles t = Float.max t.counters.Perf_counters.cycles (Timeline.makespan t.timeline)

(* Fold asynchronous agents' completion into the serial counter so that
   everything downstream of a measured run (perf reports, bench
   artifacts, the fuzzer's invariants) reports the makespan. A blocking
   run schedules nothing on the timeline, so this is the identity
   there — bit-for-bit. The pre-absorb serial counter — how long the
   host itself was busy — is what the critical-path doctor's
   perfect-overlap floor needs, so remember it before overwriting. *)
let absorb_makespan t =
  if t.host_serial = None then
    t.host_serial <- Some t.counters.Perf_counters.cycles;
  t.counters.Perf_counters.cycles <- task_clock_cycles t

(* The host's own busy cycles: the captured pre-absorb counter, or the
   live counter when [absorb_makespan] has not run yet. *)
let host_serial_cycles t =
  match t.host_serial with Some c -> c | None -> t.counters.Perf_counters.cycles

(* The timeline's neutral view for {!Critpath.analyze}: every scheduled
   agent event and host mark becomes an interval, labelled with its
   attribution category. The label vocabulary here is exactly what
   {!Dma_engine} records. *)
let critpath_interval (e : Timeline.event) =
  let open Critpath in
  let category, jump, offload =
    if e.Timeline.ev_mark then
      match e.Timeline.ev_label with
      | "program_send" -> (Dma_send, false, false)
      | "program_recv" -> (Dma_recv, false, false)
      | "host_send" -> (Dma_send, false, true)
      | "host_recv" -> (Dma_recv, false, true)
      | "accel_stall" -> (Accel_compute, false, true)
      | "send_sync" | "dma_poll" -> (Wait_stall, false, true)
      | "token_stall" -> (Wait_stall, true, true)
      | "status_check" -> (Status_check, false, true)
      | _ -> (Host_compute, false, false)
    else
      match e.Timeline.ev_label with
      | "send" -> (Dma_send, false, false)
      | "recv" -> (Dma_recv, false, false)
      | "compute" -> (Accel_compute, false, false)
      | _ -> (Host_compute, false, false)
  in
  {
    iv_seq = e.Timeline.ev_seq;
    iv_agent = e.Timeline.ev_agent;
    iv_label = e.Timeline.ev_label;
    iv_start = e.Timeline.ev_start;
    iv_finish = e.Timeline.ev_finish;
    iv_not_before = e.Timeline.ev_not_before;
    iv_dep = e.Timeline.ev_dep;
    iv_mark = e.Timeline.ev_mark;
    iv_jump = jump;
    iv_category = category;
    iv_offload = offload;
  }

let critpath_input t =
  let c = t.counters in
  {
    Critpath.in_makespan = task_clock_cycles t;
    in_host_end = host_serial_cycles t;
    in_dma_transfer =
      (c.Perf_counters.dma_words_sent +. c.Perf_counters.dma_words_received)
      *. Cost_model.cpu_cycles_per_word t.cost;
    in_accel_busy = Cost_model.accel_to_cpu_cycles t.cost c.Perf_counters.accel_busy_cycles;
    in_intervals = List.map critpath_interval (Timeline.events t.timeline);
  }

let engine_track_names t =
  List.concat_map
    (fun (id, e) ->
      let dev = (Dma_engine.device e).Accel_device.device_name in
      [
        (Trace.dma_channel_track id, Printf.sprintf "dma%d channel" id);
        (Trace.accel_device_track id, Printf.sprintf "%s (dma%d)" dev id);
      ])
    (List.sort compare t.engines)

(* Charge one cache access at the given byte address. *)
let[@inline] charge_access t addr =
  let level_hit = Cache.access t.cache addr in
  let c = t.counters in
  c.l1_accesses <- c.l1_accesses +. 1.0;
  if level_hit >= 2 then begin
    c.l1_misses <- c.l1_misses +. 1.0;
    if Cache.levels t.cache >= 2 then c.l2_accesses <- c.l2_accesses +. 1.0
  end;
  if level_hit >= 3 then c.l2_misses <- c.l2_misses +. 1.0;
  c.cycles <- c.cycles +. t.access_cycles.(level_hit - 1);
  c.instructions <- c.instructions +. 1.0

let charge_memref_access t buf i =
  let c = t.counters in
  c.l1_accesses <- c.l1_accesses +. 2.0;
  c.cycles <- c.cycles +. (2.0 *. t.cost.l1_hit_cycles) +. t.cost.alu_cycles;
  c.instructions <- c.instructions +. 3.0;
  charge_access t (Sim_memory.addr_of buf i)

let[@inline] charge_l1_hits t n =
  let c = t.counters in
  c.l1_accesses <- c.l1_accesses +. float_of_int n;
  c.cycles <- c.cycles +. (float_of_int n *. t.cost.l1_hit_cycles);
  c.instructions <- c.instructions +. float_of_int n

let[@inline] alu t n =
  t.counters.cycles <- t.counters.cycles +. (float_of_int n *. t.cost.alu_cycles);
  t.counters.instructions <- t.counters.instructions +. float_of_int n

let[@inline] fpu t n =
  t.counters.cycles <- t.counters.cycles +. (float_of_int n *. t.cost.fpu_cycles);
  t.counters.instructions <- t.counters.instructions +. float_of_int n;
  t.counters.flops <- t.counters.flops +. float_of_int n

let[@inline] branch t n =
  t.counters.cycles <- t.counters.cycles +. (float_of_int n *. t.cost.branch_cycles);
  t.counters.branches <- t.counters.branches +. float_of_int n;
  t.counters.instructions <- t.counters.instructions +. float_of_int n

let loop_iteration t =
  t.counters.cycles <- t.counters.cycles +. t.cost.loop_overhead_cycles;
  t.counters.instructions <- t.counters.instructions +. 2.0;
  branch t 1

let call_overhead t =
  t.counters.cycles <- t.counters.cycles +. 4.0;
  t.counters.instructions <- t.counters.instructions +. 2.0;
  branch t 2

let[@inline] uncached_store_words t n =
  t.counters.cycles <- t.counters.cycles +. (float_of_int n *. t.cost.uncached_store_cycles);
  t.counters.instructions <- t.counters.instructions +. float_of_int n

let now_ms t = Perf_counters.task_clock_ms t.counters ~cpu_freq_mhz:t.cost.cpu_freq_mhz
