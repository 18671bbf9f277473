type tile_sizes = { tm : int; tn : int; tk : int }

let sub2 view i j si sj = Memref_view.subview view ~offsets:[ i; j ] ~sizes:[ si; sj ]

(* Primitive driver actions, all with bare-array (specialised) copies
   and one DMA transfer per opcode — the "fewest transfer calls"
   property of the hand-written baselines. *)

let send_tile lib lit view = Manual_conv.send_tile_with lib ~alu:4 lit view
let recv_tile lib lit view = Manual_conv.recv_tile_with lib ~alu:4 lit ~accumulate:true view

(* v1's single fused instruction: A and B batched into one transfer. *)
let send_fused_recv lib ~a_tile ~b_tile ~c_tile =
  Soc.alu (Dma_library.soc lib) 12;
  let offset = Dma_library.stage_literal lib Isa.mm_fused ~offset:0 in
  let offset =
    Dma_library.copy_to_dma_region_with lib (Dma_library.manual_strategy a_tile) a_tile ~offset
  in
  ignore (Dma_library.copy_to_dma_region_with lib (Dma_library.manual_strategy b_tile) b_tile ~offset);
  Dma_library.recv_into lib (Dma_library.manual_strategy c_tile) c_tile ~accumulate:true

let send_v4_config lib { tm; tn; tk } =
  Manual_conv.send_two lib Isa.mm_set_tm tm;
  Manual_conv.send_two lib Isa.mm_set_tn tn;
  Manual_conv.send_two lib Isa.mm_set_tk tk

let run soc (config : Accel_config.t) ~flow ?tiles ~a ~b ~c () =
  let version, size =
    match config.engine with
    | Accel_config.Matmul_engine (v, s) -> (v, s)
    | Accel_config.Conv_engine -> failwith "Manual_matmul: conv engine"
  in
  if not (List.mem flow (Presets.matmul_flows version)) then
    failwith
      (Printf.sprintf "Manual_matmul: flow %s not supported by %s_%d" flow
         (Accel_matmul.version_to_string version)
         size);
  let { tm; tn; tk } =
    match tiles with
    | Some t ->
      if version <> Accel_matmul.V4 then
        failwith "Manual_matmul: custom tiles require the v4 engine";
      t
    | None -> { tm = size; tn = size; tk = size }
  in
  let m = List.nth a.Memref_view.shape 0 and k = List.nth a.Memref_view.shape 1 in
  let n = List.nth b.Memref_view.shape 1 in
  if List.nth b.Memref_view.shape 0 <> k
     || List.nth c.Memref_view.shape 0 <> m
     || List.nth c.Memref_view.shape 1 <> n
  then failwith "Manual_matmul: operand shape mismatch";
  if m mod tm <> 0 || n mod tn <> 0 || k mod tk <> 0 then
    failwith "Manual_matmul: problem dims must be divisible by the tile sizes";
  let lib = Dma_library.init soc ~dma_id:config.dma.dma_id ~strategy:Dma_library.Specialized in
  let loop = Manual_conv.loop soc in
  Manual_conv.send_inst lib Isa.reset;
  if version = Accel_matmul.V4 then send_v4_config lib { tm; tn; tk };
  let a_tile i l = sub2 a (i * tm) (l * tk) tm tk in
  let b_tile l j = sub2 b (l * tk) (j * tn) tk tn in
  let c_tile i j = sub2 c (i * tm) (j * tn) tm tn in
  let mt = m / tm and nt = n / tn and kt = k / tk in
  let compute_lit, drain_lit =
    match version with
    | Accel_matmul.V2 -> (Isa.mm_compute_drain, Isa.mm_compute_drain)
    | Accel_matmul.V1 | Accel_matmul.V3 | Accel_matmul.V4 -> (Isa.mm_compute, Isa.mm_drain)
  in
  (match (version, flow) with
  | Accel_matmul.V1, _ ->
    loop mt (fun i ->
        loop nt (fun j ->
            loop kt (fun l ->
                send_fused_recv lib ~a_tile:(a_tile i l) ~b_tile:(b_tile l j)
                  ~c_tile:(c_tile i j))))
  | Accel_matmul.V2, "Ns" ->
    loop mt (fun i ->
        loop nt (fun j ->
            loop kt (fun l ->
                send_tile lib Isa.mm_load_a (a_tile i l);
                send_tile lib Isa.mm_load_b (b_tile l j);
                recv_tile lib Isa.mm_compute_drain (c_tile i j))))
  | Accel_matmul.V2, "As" ->
    loop mt (fun i ->
        loop kt (fun l ->
            send_tile lib Isa.mm_load_a (a_tile i l);
            loop nt (fun j ->
                send_tile lib Isa.mm_load_b (b_tile l j);
                recv_tile lib Isa.mm_compute_drain (c_tile i j))))
  | Accel_matmul.V2, "Bs" ->
    loop kt (fun l ->
        loop nt (fun j ->
            send_tile lib Isa.mm_load_b (b_tile l j);
            loop mt (fun i ->
                send_tile lib Isa.mm_load_a (a_tile i l);
                recv_tile lib Isa.mm_compute_drain (c_tile i j))))
  | (Accel_matmul.V3 | Accel_matmul.V4), "Ns" ->
    loop mt (fun i ->
        loop nt (fun j ->
            loop kt (fun l ->
                send_tile lib Isa.mm_load_a (a_tile i l);
                send_tile lib Isa.mm_load_b (b_tile l j);
                Manual_conv.send_inst lib compute_lit;
                recv_tile lib drain_lit (c_tile i j))))
  | (Accel_matmul.V3 | Accel_matmul.V4), "As" ->
    loop mt (fun i ->
        loop kt (fun l ->
            send_tile lib Isa.mm_load_a (a_tile i l);
            loop nt (fun j ->
                send_tile lib Isa.mm_load_b (b_tile l j);
                Manual_conv.send_inst lib compute_lit;
                recv_tile lib drain_lit (c_tile i j))))
  | (Accel_matmul.V3 | Accel_matmul.V4), "Bs" ->
    loop kt (fun l ->
        loop nt (fun j ->
            send_tile lib Isa.mm_load_b (b_tile l j);
            loop mt (fun i ->
                send_tile lib Isa.mm_load_a (a_tile i l);
                Manual_conv.send_inst lib compute_lit;
                recv_tile lib drain_lit (c_tile i j))))
  | (Accel_matmul.V3 | Accel_matmul.V4), "Cs" ->
    loop mt (fun i ->
        loop nt (fun j ->
            loop kt (fun l ->
                send_tile lib Isa.mm_load_a (a_tile i l);
                send_tile lib Isa.mm_load_b (b_tile l j);
                Manual_conv.send_inst lib compute_lit);
            recv_tile lib drain_lit (c_tile i j)))
  | _, other -> failwith (Printf.sprintf "Manual_matmul: unsupported flow %s" other));
  ignore drain_lit;
  Dma_library.free lib
