let schema = "axi4mlir-tune-report-v1"

type best = {
  bs_candidate : Tune_space.candidate;
  bs_cycles : float;
  bs_from_baseline : bool;
}

type result = {
  r_label : string;
  r_workload : Tune_workload.t;
  r_space : int;
  r_pruned : (string * int) list;
  r_evaluated : int;
  r_cache_hits : int;
  r_rejected : int;
  r_best : best option;
  r_baseline : (string * float) option;
}

type t = { rp_strategy : Tune_strategy.t; rp_results : result list }

let speedup_vs_baseline r =
  match (r.r_best, r.r_baseline) with
  | Some best, Some (_, base) when best.bs_cycles > 0.0 -> Some (base /. best.bs_cycles)
  | _ -> None

let result_to_json r =
  Json.Obj
    [
      ("label", Json.String r.r_label);
      ("workload", Json.String (Tune_workload.to_string r.r_workload));
      ( "dims",
        Json.List (List.map (fun d -> Json.Int d) (Tune_workload.dims r.r_workload)) );
      ("space", Json.Int r.r_space);
      ("pruned", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_pruned));
      ("evaluated", Json.Int r.r_evaluated);
      ("cache_hits", Json.Int r.r_cache_hits);
      ("rejected", Json.Int r.r_rejected);
      ( "best",
        match r.r_best with
        | None -> Json.Null
        | Some b ->
          Json.Obj
            [
              ("candidate", Tune_space.candidate_to_json b.bs_candidate);
              ("config", Json.String (Tune_space.candidate_to_string b.bs_candidate));
              ("cycles", Json.Float b.bs_cycles);
              ("from_baseline", Json.Bool b.bs_from_baseline);
            ] );
      ( "baseline",
        match r.r_baseline with
        | None -> Json.Null
        | Some (descr, cycles) ->
          Json.Obj [ ("config", Json.String descr); ("cycles", Json.Float cycles) ] );
      ( "speedup_vs_baseline",
        match speedup_vs_baseline r with None -> Json.Null | Some s -> Json.Float s );
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("strategy", Json.String (Tune_strategy.to_string t.rp_strategy));
      ("results", Json.List (List.map result_to_json t.rp_results));
    ]

let render t =
  let table =
    Tabulate.create
      [
        ("workload", Tabulate.Left);
        ("space", Tabulate.Right);
        ("pruned", Tabulate.Right);
        ("eval", Tabulate.Right);
        ("cached", Tabulate.Right);
        ("best config", Tabulate.Left);
        ("cycles", Tabulate.Right);
        ("vs heuristic", Tabulate.Right);
      ]
  in
  List.iter
    (fun r ->
      let pruned = List.fold_left (fun acc (_, n) -> acc + n) 0 r.r_pruned in
      Tabulate.add_row table
        [
          r.r_label;
          string_of_int r.r_space;
          string_of_int pruned;
          string_of_int r.r_evaluated;
          string_of_int r.r_cache_hits;
          (match r.r_best with
          | None -> "(none)"
          | Some b ->
            Tune_space.candidate_to_string b.bs_candidate
            ^ if b.bs_from_baseline then " [heuristic]" else "");
          (match r.r_best with
          | None -> "-"
          | Some b -> Printf.sprintf "%.0f" b.bs_cycles);
          (match speedup_vs_baseline r with
          | None -> "-"
          | Some s -> Tabulate.fmt_x s);
        ])
    t.rp_results;
  Printf.sprintf "Tuning report (strategy: %s)\n%s\n"
    (Tune_strategy.to_string t.rp_strategy)
    (Tabulate.render table)

let write_file path t = Json.write_file ~indent:2 path (to_json t)
