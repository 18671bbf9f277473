(* The manual drivers' host protocol, one DMA transfer per opcode: an
   opcode word alone, with one operand word, or with a tile. A tile
   transfer charges [alu] host ops for its address arithmetic. *)

let send_inst lib lit =
  ignore (Dma_library.stage_literal lib lit ~offset:0);
  Dma_library.flush_send lib

let send_two lib a b =
  let offset = Dma_library.stage_literal lib a ~offset:0 in
  ignore (Dma_library.stage_literal lib b ~offset);
  Dma_library.flush_send lib

let send_tile_with lib ~alu lit view =
  Soc.alu (Dma_library.soc lib) alu;
  let offset = Dma_library.stage_literal lib lit ~offset:0 in
  ignore
    (Dma_library.copy_to_dma_region_with lib (Dma_library.manual_strategy view) view ~offset);
  Dma_library.flush_send lib

let recv_tile_with lib ~alu lit ~accumulate view =
  Soc.alu (Dma_library.soc lib) alu;
  ignore (Dma_library.stage_literal lib lit ~offset:0);
  Dma_library.recv_into lib (Dma_library.manual_strategy view) view ~accumulate

(* The conv driver charges six host ops per tile and drains with [cv_drain]. *)
let send_tile lib lit view = send_tile_with lib ~alu:6 lit view
let recv_tile lib ~accumulate view = recv_tile_with lib ~alu:6 Isa.cv_drain ~accumulate view

let loop soc count body =
  for i = 0 to count - 1 do
    Soc.loop_iteration soc;
    body i
  done

let run soc (config : Accel_config.t) ?(flow = "Ws") ?(stride = 1) ~input ~filter ~output () =
  (match config.engine with
  | Accel_config.Conv_engine -> ()
  | Accel_config.Matmul_engine _ -> failwith "Manual_conv: not a conv engine");
  let extent v d = List.nth v.Memref_view.shape d in
  let n = extent input 0 and ic = extent input 1 in
  let oc = extent filter 0 and fh = extent filter 2 and fw = extent filter 3 in
  let oh = extent output 2 and ow = extent output 3 in
  if extent filter 1 <> ic || extent output 0 <> n || extent output 1 <> oc then
    failwith "Manual_conv: operand shape mismatch";
  if fh <> fw then failwith "Manual_conv: the engine supports square filters only";
  if ic * fh * fw > config.buffer_capacity_elems then
    failwith "Manual_conv: slice exceeds the engine's buffer capacity";
  let lib = Dma_library.init soc ~dma_id:config.dma.dma_id ~strategy:Dma_library.Specialized in
  let send_tile = send_tile lib and recv_tile = recv_tile lib ~accumulate:true in
  let loop = loop soc in
  (* reset + configuration *)
  send_inst lib Isa.reset;
  send_two lib Isa.cv_set_fhw fh;
  send_two lib Isa.cv_set_ic ic;
  let w_slice f =
    Memref_view.subview filter ~offsets:[ f; 0; 0; 0 ] ~sizes:[ 1; ic; fh; fw ]
  in
  let patch b y x =
    Memref_view.subview input
      ~offsets:[ b; 0; stride * y; stride * x ]
      ~sizes:[ 1; ic; fh; fw ]
  in
  let out_pixel b f y x =
    Memref_view.subview output ~offsets:[ b; f; y; x ] ~sizes:[ 1; 1; 1; 1 ]
  in
  let out_slice b f =
    Memref_view.subview output ~offsets:[ b; f; 0; 0 ] ~sizes:[ 1; 1; oh; ow ]
  in
  let out_row b f y =
    Memref_view.subview output ~offsets:[ b; f; y; 0 ] ~sizes:[ 1; 1; 1; ow ]
  in
  (match flow with
  | "Rs" ->
    (* weights stationary, one drain per output row — the natural
       hand-optimised batching *)
    loop oc (fun f ->
        send_tile Isa.cv_load_w (w_slice f);
        loop n (fun b ->
            loop oh (fun y ->
                loop ow (fun x -> send_tile Isa.cv_patch (patch b y x));
                recv_tile (out_row b f y))))
  | "Ws" ->
    loop oc (fun f ->
        send_tile Isa.cv_load_w (w_slice f);
        loop n (fun b ->
            loop oh (fun y ->
                loop ow (fun x ->
                    send_tile Isa.cv_patch (patch b y x);
                    recv_tile (out_pixel b f y x)))))
  | "Os" ->
    loop oc (fun f ->
        send_tile Isa.cv_load_w (w_slice f);
        loop n (fun b ->
            loop oh (fun y ->
                loop ow (fun x -> send_tile Isa.cv_patch (patch b y x)));
            recv_tile (out_slice b f)))
  | other -> failwith (Printf.sprintf "Manual_conv: unknown flow %s" other));
  Dma_library.free lib
