(* Architecture search over platform descriptions: enumerate (engine
   multiset, channels, beat) candidates, prune statically against the
   area budget, search the rest with Tune_strategy, score through the
   serving oracle, report a Pareto front. *)

type space = {
  ss_engines : string list;
  ss_max_instances : int;
  ss_channels : int list;
  ss_beats : int list;
}

let default_space =
  {
    ss_engines = [ "v2_8"; "v3_16"; "v4_16" ];
    ss_max_instances = 3;
    ss_channels = [ 1; 2; 3 ];
    ss_beats = Platform_ir.beat_widths;
  }

let quick_space =
  {
    ss_engines = [ "v3_16"; "v4_16" ];
    ss_max_instances = 2;
    ss_channels = [ 1; 2 ];
    ss_beats = [ 4; 8 ];
  }

let ( let* ) = Result.bind

let validate_space s =
  let* () =
    if s.ss_engines = [] then Error "space.engines: need at least one engine"
    else Ok ()
  in
  let* () =
    if s.ss_max_instances < 1 then
      Error
        (Printf.sprintf "space.max_instances: need at least one instance slot (got %d)"
           s.ss_max_instances)
    else Ok ()
  in
  let* () =
    if s.ss_channels = [] || List.exists (fun c -> c < 1) s.ss_channels then
      Error "space.channels: need a non-empty list of positive channel counts"
    else Ok ()
  in
  let* () =
    if s.ss_beats = [] || List.exists (fun b -> not (List.mem b Platform_ir.beat_widths)) s.ss_beats
    then
      Error
        (Printf.sprintf "space.beats: need a non-empty subset of the valid beat widths (%s)"
           (String.concat ", " (List.map string_of_int Platform_ir.beat_widths)))
    else Ok ()
  in
  (* every pool engine must instantiate: reuse the IR's own check *)
  let rec engines = function
    | [] -> Ok ()
    | e :: rest -> (
      let probe =
        { Platform_ir.in_id = "probe"; in_engine = e; in_capacity_elems = None }
      in
      match Platform_ir.engine_config probe with
      | Ok _ -> engines rest
      | Error msg -> Error (Printf.sprintf "space.engines: %s" msg))
  in
  engines s.ss_engines

(* Engine multisets of size 1..max as non-decreasing index sequences,
   so [v4;v3] and [v3;v4] are the same candidate. *)
let multisets pool max_size =
  let n = List.length pool in
  let rec go size start =
    if size = 0 then [ [] ]
    else
      List.concat
        (List.init (n - start) (fun off ->
             let i = start + off in
             List.map (fun rest -> List.nth pool i :: rest) (go (size - 1) i)))
  in
  List.concat (List.init max_size (fun k -> go (k + 1) 0))

let candidate engines channels beat =
  {
    Platform_ir.pf_name =
      Printf.sprintf "cand-%s-%dch-b%d" (String.concat "+" engines) channels beat;
    pf_instances =
      List.mapi
        (fun i e ->
          {
            Platform_ir.in_id = Printf.sprintf "acc%d" i;
            in_engine = e;
            in_capacity_elems = None;
          })
        engines;
    pf_dma_channels = channels;
    pf_axi_beat_bytes = beat;
  }

let enumerate s =
  let* () = validate_space s in
  Ok
    (List.concat_map
       (fun engines ->
         List.concat_map
           (fun channels ->
             List.map (fun beat -> candidate engines channels beat) s.ss_beats)
           s.ss_channels)
       (multisets s.ss_engines s.ss_max_instances))

type point = {
  pt_platform : Platform_ir.t;
  pt_resource : float;
  pt_throughput_rps : float;
  pt_p99_cycles : float;
  pt_per_resource : float;
}

type outcome = {
  sr_space : int;
  sr_over_budget : int;
  sr_evaluated : int;
  sr_best : point option;
  sr_front : point list;
  sr_baseline : point option;
}

(* ------------------------------------------------------------------ *)
(* The serving oracle                                                  *)
(* ------------------------------------------------------------------ *)

let default_measure ?freq_mhz ?queue_cap ?(batch_max = 1) ~policy ~models ~requests
    () =
  let freq_mhz =
    match freq_mhz with
    | Some f -> f
    | None -> Cost_model.default.Cost_model.cpu_freq_mhz
  in
  (* one oracle, keyed by engine, shared across every candidate this
     closure measures: the search's simulation cost scales with
     distinct engines, not candidates *)
  let oracle = Serve_cost.create models in
  fun (p : Platform_ir.t) ->
    let fleet = Platform_serve.create ~platform:p oracle in
    match Platform_serve.run ?queue_cap ~batch_max ~policy fleet requests with
    | Error _ -> None
    | Ok outcome -> (
      let s = Serve_report.summarize ~freq_mhz policy outcome in
      match s.Serve_report.sm_throughput_rps with
      | None -> None
      | Some rps -> Some (rps, s.Serve_report.sm_latency.Serve_report.d_p99))

(* ------------------------------------------------------------------ *)
(* Neighborhood: candidates differing in exactly one knob              *)
(* ------------------------------------------------------------------ *)

let multiset_distance a b =
  (* sum over engines of |count_a - count_b| *)
  let count xs e = List.length (List.filter (( = ) e) xs) in
  let universe = List.sort_uniq compare (a @ b) in
  List.fold_left (fun acc e -> acc + abs (count a e - count b e)) 0 universe

let are_neighbors (a : Platform_ir.t) (b : Platform_ir.t) =
  let ea = Platform_ir.instance_names a and eb = Platform_ir.instance_names b in
  let same_engines = List.sort compare ea = List.sort compare eb in
  let same_channels = a.Platform_ir.pf_dma_channels = b.Platform_ir.pf_dma_channels in
  let same_beat = a.Platform_ir.pf_axi_beat_bytes = b.Platform_ir.pf_axi_beat_bytes in
  (same_engines && same_channels && not same_beat)
  || (same_engines && same_beat && not same_channels)
  || (same_channels && same_beat && (not same_engines)
     && multiset_distance ea eb <= 2
     && abs (List.length ea - List.length eb) <= 1)

(* ------------------------------------------------------------------ *)
(* The seeding proxy (greedy's predicted ranking)                      *)
(* ------------------------------------------------------------------ *)

(* Analytic only — never simulates. Raw compute = total PEs; assume
   kernels are about half transfer on the baseline bus (they are
   DMA-bound on the larger engines), so the platform's DMA scale moves
   half of the predicted service time; divide by resource for the
   objective. Strategies only need a ranking. *)
let predict_proxy (p : Platform_ir.t) =
  let pes =
    List.fold_left
      (fun acc inst ->
        match Platform_ir.engine_config inst with
        | Ok { Accel_config.engine = Accel_config.Matmul_engine (_, size); _ } ->
          acc +. float_of_int (size * size)
        | Ok _ | Error _ -> acc)
      0.0 p.Platform_ir.pf_instances
  in
  let scale = Platform_serve.dma_scale p in
  let rate = pes /. (0.5 +. (0.5 *. scale)) in
  match Platform_cost.resource_total p with
  | Ok res when res > 0.0 -> -. (rate /. res)
  | Ok _ | Error _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Pareto front over (per-resource max, p99 min)                       *)
(* ------------------------------------------------------------------ *)

let dominated_by a b =
  (* b dominates a: no worse on both axes, strictly better on one *)
  b.pt_per_resource >= a.pt_per_resource
  && b.pt_p99_cycles <= a.pt_p99_cycles
  && (b.pt_per_resource > a.pt_per_resource || b.pt_p99_cycles < a.pt_p99_cycles)

let front_of points =
  let front =
    List.filter (fun a -> not (List.exists (fun b -> dominated_by a b) points)) points
  in
  List.sort
    (fun a b ->
      compare
        (b.pt_per_resource, a.pt_p99_cycles, a.pt_platform.Platform_ir.pf_name)
        (a.pt_per_resource, b.pt_p99_cycles, b.pt_platform.Platform_ir.pf_name))
    front

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

let search ?(strategy = Tune_strategy.Grid) ?area_budget ?baseline ~measure s =
  let* () =
    match area_budget with
    | Some b when not (b > 0.0) ->
      Error
        (Printf.sprintf "area budget must be positive (got %g resource units)" b)
    | _ -> Ok ()
  in
  let* all = enumerate s in
  let* scored =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest ->
        let* r =
          match Platform_cost.resource_total p with
          | Ok r -> Ok r
          | Error msg -> Error (Printf.sprintf "%s: %s" p.Platform_ir.pf_name msg)
        in
        go ((p, r) :: acc) rest
    in
    go [] all
  in
  let kept, over =
    List.partition
      (fun (_, r) ->
        match area_budget with None -> true | Some b -> r <= b)
      scored
  in
  let candidates = Array.of_list kept in
  let n = Array.length candidates in
  let points = Hashtbl.create 32 in
  let point_of p resource =
    match measure p with
    | None -> None
    | Some (rps, p99) ->
      if resource > 0.0 then
        Some
          {
            pt_platform = p;
            pt_resource = resource;
            pt_throughput_rps = rps;
            pt_p99_cycles = p99;
            pt_per_resource = rps /. resource;
          }
      else None
  in
  let eval i =
    let p, resource = candidates.(i) in
    match point_of p resource with
    | None -> None
    | Some pt ->
      Hashtbl.replace points i pt;
      (* Tune_strategy minimises; the objective is max per-resource *)
      Some (-.pt.pt_per_resource)
  in
  let neighbors i =
    let p, _ = candidates.(i) in
    let out = ref [] in
    for j = n - 1 downto 0 do
      if j <> i && are_neighbors p (fst candidates.(j)) then out := j :: !out
    done;
    !out
  in
  let predict i = predict_proxy (fst candidates.(i)) in
  let best_idx, evaluated =
    if n = 0 then (None, 0) else Tune_strategy.run strategy ~n ~predict ~neighbors ~eval
  in
  let evaluated_points = Hashtbl.fold (fun _ pt acc -> pt :: acc) points [] in
  let baseline_pt =
    let b = match baseline with Some b -> b | None -> Platform_ir.homogeneous ~accels:2 () in
    match Platform_cost.resource_total b with
    | Error _ -> None
    | Ok r -> point_of b r
  in
  Ok
    {
      sr_space = List.length all;
      sr_over_budget = List.length over;
      sr_evaluated = evaluated;
      sr_best =
        (match best_idx with Some (i, _) -> Hashtbl.find_opt points i | None -> None);
      sr_front = front_of evaluated_points;
      sr_baseline = baseline_pt;
    }

let pick_winner r =
  match r.sr_baseline with
  | None -> r.sr_best
  | Some b ->
    List.find_opt
      (fun pt ->
        pt.pt_per_resource > b.pt_per_resource && pt.pt_p99_cycles <= b.pt_p99_cycles)
      r.sr_front (* front is sorted by per-resource descending *)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "platform search: %d candidate(s), %d over budget, %d measured\n" r.sr_space
       r.sr_over_budget r.sr_evaluated);
  let t =
    Tabulate.create
      [
        ("platform", Tabulate.Left);
        ("units", Tabulate.Right);
        ("req/s", Tabulate.Right);
        ("req/s/unit", Tabulate.Right);
        ("p99 cycles", Tabulate.Right);
        ("", Tabulate.Left);
      ]
  in
  let row tag pt =
    Tabulate.add_row t
      [
        Platform_ir.to_string pt.pt_platform;
        Printf.sprintf "%.1f" pt.pt_resource;
        Printf.sprintf "%.1f" pt.pt_throughput_rps;
        Printf.sprintf "%.4f" pt.pt_per_resource;
        Printf.sprintf "%.0f" pt.pt_p99_cycles;
        tag;
      ]
  in
  List.iter
    (fun pt ->
      row
        (match pick_winner r with
        | Some w when w.pt_platform.Platform_ir.pf_name = pt.pt_platform.Platform_ir.pf_name ->
          "<- winner"
        | _ -> "")
        pt)
    r.sr_front;
  (match r.sr_baseline with Some b -> row "(baseline)" b | None -> ());
  let table = Tabulate.render t in
  Buffer.add_string buf table;
  if not (String.length table > 0 && table.[String.length table - 1] = '\n') then
    Buffer.add_char buf '\n';
  (match r.sr_front with
  | [] -> Buffer.add_string buf "no feasible platform evaluated\n"
  | _ -> ());
  Buffer.contents buf
