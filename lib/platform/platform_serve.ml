(* Platform -> heterogeneous serving fleet: each instance's engine
   config costed through one shared Serve_cost oracle, Serve_sim hooks,
   and the transfer model that applies the platform's beat width and
   channel contention to the DMA share of each measured service time. *)

type t = {
  ps_platform : Platform_ir.t;
  ps_oracle : Serve_cost.t;
  ps_engines : Accel_config.t array;  (* by instance index *)
  ps_scale : float;
  ps_identity : bool;  (* scale is exactly 1: skip all FP arithmetic *)
}

let dma_scale (p : Platform_ir.t) =
  let insts = Platform_ir.n_instances p in
  let channels = p.Platform_ir.pf_dma_channels in
  if channels >= insts && p.Platform_ir.pf_axi_beat_bytes = 4 then 1.0
  else begin
    let beat = 4.0 /. float_of_int p.Platform_ir.pf_axi_beat_bytes in
    let contention =
      if insts > channels then float_of_int insts /. float_of_int channels else 1.0
    in
    beat *. contention
  end

let scale_is_identity (p : Platform_ir.t) =
  p.Platform_ir.pf_dma_channels >= Platform_ir.n_instances p
  && p.Platform_ir.pf_axi_beat_bytes = 4

let create ~platform oracle =
  (match Platform_ir.validate platform with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let engine_of inst =
    match Platform_ir.engine_config inst with
    | Ok c -> c
    | Error msg ->
      failwith (Printf.sprintf "platform: instance %s: %s" inst.Platform_ir.in_id msg)
  in
  {
    ps_platform = platform;
    ps_oracle = oracle;
    ps_engines = Array.of_list (List.map engine_of platform.Platform_ir.pf_instances);
    ps_scale = dma_scale platform;
    ps_identity = scale_is_identity platform;
  }

let platform t = t.ps_platform

let engines t = Platform_ir.instance_names t.ps_platform

let engine_at t idx =
  if idx < 0 || idx >= Array.length t.ps_engines then
    failwith
      (Printf.sprintf "platform: accelerator index %d out of range (platform has %d)"
         idx (Array.length t.ps_engines))
  else t.ps_engines.(idx)

let cycles_per_word = lazy (Cost_model.cpu_cycles_per_word Cost_model.default)

let service_at t ~accel model ~batch =
  let cycles, words =
    Serve_cost.service_parts ~engine:(engine_at t accel) t.ps_oracle model ~batch
  in
  if t.ps_identity then cycles
  else begin
    (* split the measurement into its DMA and compute shares, scale
       only the DMA share. The estimate is clamped to the measured
       total: a kernel can never be more than all-transfer. *)
    let dma = Float.min cycles (words *. Lazy.force cycles_per_word) in
    let compute = cycles -. dma in
    compute +. (dma *. t.ps_scale)
  end

let predict_at t ~accel model =
  Serve_cost.predict ~engine:(engine_at t accel) t.ps_oracle model

let run ?telemetry ?queue_cap ?(batch_max = 1) ~policy t requests =
  let params =
    {
      Serve_sim.sp_accels = Platform_ir.n_instances t.ps_platform;
      sp_policy = policy;
      sp_queue_cap = queue_cap;
      sp_batch_max = batch_max;
    }
  in
  Serve_sim.run ?telemetry
    ~service_at:(fun ~accel model ~batch -> service_at t ~accel model ~batch)
    ~predict_at:(fun ~accel model -> predict_at t ~accel model)
    ~service:(fun model ~batch -> service_at t ~accel:0 model ~batch)
    ~predict:(fun model -> predict_at t ~accel:0 model)
    params requests
