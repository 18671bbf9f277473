type choice = {
  flow : string;
  tm : int;
  tn : int;
  tk : int;
  predicted_cycles : float;
  predicted_transfer_elems : float;
}

let f = float_of_int

(* Tile-transfer counts per flow (v3/v4 opcode structure):
   how many times each operand tile crosses the bus. *)
let tile_counts ~flow ~mt ~nt ~kt =
  match flow with
  | "Ns" ->
    (* every tile every innermost iteration *)
    (mt * nt * kt, mt * nt * kt, mt * nt * kt)
  | "As" -> (mt * kt, mt * nt * kt, mt * nt * kt)
  | "Bs" -> (mt * nt * kt, kt * nt, mt * nt * kt)
  | "Cs" -> (mt * nt * kt, mt * nt * kt, mt * nt)
  | other -> failwith (Printf.sprintf "Heuristics: unknown flow %s" other)

let transfer_elems ~flow ~m ~n ~k ~tm ~tn ~tk =
  let mt = m / tm and nt = n / tn and kt = k / tk in
  let a_sends, b_sends, c_recvs = tile_counts ~flow ~mt ~nt ~kt in
  f (a_sends * tm * tk) +. f (b_sends * tk * tn) +. f (c_recvs * tm * tn)

let estimate_cycles (config : Accel_config.t) ~(cost : Cost_model.t) ~flow ~m ~n ~k ~tm
    ~tn ~tk =
  let mt = m / tm and nt = n / tn and kt = k / tk in
  let a_sends, b_sends, c_recvs = tile_counts ~flow ~mt ~nt ~kt in
  let inner_iters = mt * nt * kt in
  let per_word = Cost_model.cpu_cycles_per_word cost in
  let txn words = cost.dma_program_cycles +. cost.dma_wait_cycles +. (f words *. per_word) in
  (* specialised copy: vector chunks on the cached side, uncached words
     on the region side, one memcpy setup per row *)
  let copy_out elems run =
    let rows = elems / max run 1 in
    (f elems *. ((0.25 *. cost.l1_hit_cycles) +. cost.uncached_store_cycles))
    +. (f rows *. cost.memcpy_row_setup_cycles)
  in
  let copy_in elems run =
    let rows = elems / max run 1 in
    (f elems *. (cost.uncached_load_cycles +. (0.5 *. cost.l1_hit_cycles) +. 0.5))
    +. (f rows *. cost.memcpy_row_setup_cycles)
  in
  let a_elems = tm * tk and b_elems = tk * tn and c_elems = tm * tn in
  let send_cost sends elems run = f sends *. (txn (elems + 1) +. copy_out elems run) in
  let recv_cost recvs elems run =
    (* the drain opcode: one literal-only send transaction + the
       receive transaction + the accumulate copy *)
    f recvs *. (txn 1 +. txn elems +. copy_in elems run)
  in
  (* compute trigger transactions: one per innermost iteration for
     split-compute engines *)
  let compute_txns = f inner_iters *. txn 1 in
  let compute_cycles =
    Cost_model.accel_to_cpu_cycles cost
      (2.0 *. f (tm * tn * tk) /. config.ops_per_cycle)
    *. f inner_iters
  in
  (* accelerator compute overlaps staging of the next tiles; only a
     fraction is exposed on the critical path *)
  let exposed_compute = 0.5 *. compute_cycles in
  send_cost a_sends a_elems tk
  +. send_cost b_sends b_elems tn
  +. recv_cost c_recvs c_elems tn
  +. compute_txns +. exposed_compute
  +. (f inner_iters *. 12.0)

(* Conv service-time proxy: the engine has no tiling space to search
   (one weight slice, one patch per output element), so ranking-level
   predictions use a calibrated cycles-per-MAC constant instead of the
   matmul transfer model above.

   Derivation: under the Os flow every output element costs one full
   patch transfer of iC*fHW*fHW words — exactly one bus word per MAC —
   and on the default PYNQ-Z2 cost model a staged patch word costs
   ~14-16 host cycles (cached load + uncached store + per-element copy
   overhead + its share of the per-transaction DMA program/wait), while
   the MAC itself is amortised to well under a cycle by the 64-wide
   array. The constant is pinned by the "conv-proxy-calibration"
   regression test against the measured pipeline on a row-sampled
   ResNet-18 layer, so graph-level SJF/residency predictions cannot
   silently drift away from the simulator. *)
let conv_cycles_per_mac = 16.0

let estimate_conv_cycles ~macs = conv_cycles_per_mac *. float_of_int macs

let granularity (config : Accel_config.t) =
  match config.accel_dims with
  | g :: _ when g > 0 -> g
  | _ -> failwith "Heuristics: matmul accelerator expected"

let feasible (config : Accel_config.t) ~m ~n ~k (tm, tn, tk) =
  tm > 0 && tn > 0 && tk > 0
  && m mod tm = 0 && n mod tn = 0 && k mod tk = 0
  && tm * tk <= config.buffer_capacity_elems
  && tk * tn <= config.buffer_capacity_elems
  && tm * tn <= config.buffer_capacity_elems

let candidate_tiles (config : Accel_config.t) ~m ~n ~k =
  let g = granularity config in
  let options extent =
    List.filter (fun t -> t mod g = 0 && extent mod t = 0) (Util.divisors extent)
  in
  if not config.flexible then
    if feasible config ~m ~n ~k (g, g, g) then [ (g, g, g) ] else []
  else
    List.concat_map
      (fun tm ->
        List.concat_map
          (fun tn -> List.map (fun tk -> (tm, tn, tk)) (options k))
          (options n))
      (options m)
    |> List.filter (feasible config ~m ~n ~k)

let square_tile (config : Accel_config.t) ~flow ~m ~n ~k =
  let g = granularity config in
  let squares =
    List.filter
      (fun t -> t mod g = 0 && feasible config ~m ~n ~k (t, t, t))
      (Util.divisors (min m (min n k)))
  in
  match List.rev squares with
  | [] -> None
  | best_first :: _ as descending ->
    (* Among feasible squares, minimise the element-transfer count
       (larger tiles always reduce it, so this picks the largest, but
       keep the explicit minimisation for clarity). *)
    let t =
      List.fold_left
        (fun best t ->
          if
            transfer_elems ~flow ~m ~n ~k ~tm:t ~tn:t ~tk:t
            < transfer_elems ~flow ~m ~n ~k ~tm:best ~tn:best ~tk:best
          then t
          else best)
        best_first descending
    in
    Some
      {
        flow;
        tm = t;
        tn = t;
        tk = t;
        predicted_cycles = 0.0;
        predicted_transfer_elems = transfer_elems ~flow ~m ~n ~k ~tm:t ~tn:t ~tk:t;
      }

let best ?(cost = Cost_model.default) (config : Accel_config.t) ~m ~n ~k =
  let flows =
    List.filter (fun name -> name <> "reset") (List.map fst config.opcode_flows)
  in
  let candidates = candidate_tiles config ~m ~n ~k in
  let evaluate flow (tm, tn, tk) =
    {
      flow;
      tm;
      tn;
      tk;
      predicted_cycles = estimate_cycles config ~cost ~flow ~m ~n ~k ~tm ~tn ~tk;
      predicted_transfer_elems = transfer_elems ~flow ~m ~n ~k ~tm ~tn ~tk;
    }
  in
  let all = List.concat_map (fun fl -> List.map (evaluate fl) candidates) flows in
  match all with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun acc c -> if c.predicted_cycles < acc.predicted_cycles then c else acc)
         first rest)

(* Today's default: the selection a user gets without tuning. Flexible
   engines run the Best search; fixed-size engines take their own tile
   under the configuration's selected flow. The autotuner evaluates
   this choice alongside its own candidates, so it can never return a
   config slower than this default. *)
let choose ?(cost = Cost_model.default) (config : Accel_config.t) ~m ~n ~k =
  if config.flexible then best ~cost config ~m ~n ~k
  else
    match candidate_tiles config ~m ~n ~k with
    | [] -> None
    | (tm, tn, tk) :: _ ->
      let flow = config.selected_flow in
      Some
        {
          flow;
          tm;
          tn;
          tk;
          predicted_cycles = estimate_cycles config ~cost ~flow ~m ~n ~k ~tm ~tn ~tk;
          predicted_transfer_elems = transfer_elems ~flow ~m ~n ~k ~tm ~tn ~tk;
        }

(* Tile overrides are a flexible-engine (v4) feature; fixed-geometry
   engines always tile by their own size. *)
let options_of_choice (config : Accel_config.t) c =
  let tiles = if config.flexible then Some [ c.tm; c.tn; c.tk ] else None in
  { Axi4mlir.default_codegen with flow = Some c.flow; tiles }

let best_options config ~m ~n ~k =
  match best config ~m ~n ~k with
  | Some c -> options_of_choice config c
  | None -> Axi4mlir.default_codegen
