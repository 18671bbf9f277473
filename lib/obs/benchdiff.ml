type point = {
  pt_id : string;
  pt_kind : string;
  pt_dims : int list;
  pt_config : string;
  pt_metrics : (string * float) list;
}

type doc = { doc_experiment : string; doc_quick : bool; doc_points : point list }

let schema = "axi4mlir-bench-v1"

let field kvs key = match List.assoc_opt key kvs with Some v -> v | None -> 0.0

let metrics_of_fields fields =
  let cycles = field fields "cycles" in
  let flops = field fields "flops" in
  [
    ("cycles", cycles);
    ("instructions", field fields "instructions");
    ("branches", field fields "branches");
    ("cache_references", field fields "l1_accesses" +. field fields "l2_accesses");
    ("l1_misses", field fields "l1_misses");
    ("l2_misses", field fields "l2_misses");
    ("dma_transactions", field fields "dma_transactions");
    ("dma_words", field fields "dma_words_sent" +. field fields "dma_words_received");
    ("accel_busy_cycles", field fields "accel_busy_cycles");
    ("flops", flops);
    ("gflops_per_cycle", if cycles > 0.0 then flops /. cycles else 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* Config hashing                                                      *)
(* ------------------------------------------------------------------ *)

(* 64-bit FNV-1a. Deliberately hand-rolled rather than Hashtbl.hash:
   the result is persisted (bench artifacts, tune-cache keys) and must
   be identical across OCaml versions and platforms. See the .mli for
   the compatibility guarantee. *)
let stable_hash s =
  let offset_basis = 0xCBF29CE484222325L and prime = 0x100000001B3L in
  let h = ref offset_basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let config_hash json = stable_hash (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Artifact I/O                                                        *)
(* ------------------------------------------------------------------ *)

let point_to_json p =
  Json.Obj
    [
      ("id", Json.String p.pt_id);
      ("kind", Json.String p.pt_kind);
      ("dims", Json.List (List.map (fun d -> Json.Int d) p.pt_dims));
      ("config", Json.String p.pt_config);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) p.pt_metrics));
    ]

let to_json doc =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("experiment", Json.String doc.doc_experiment);
      ("quick", Json.Bool doc.doc_quick);
      ("points", Json.List (List.map point_to_json doc.doc_points));
    ]

let ( let* ) = Result.bind

let point_of_json path json =
  let* pt_id = Json.field "id" Json.string path json in
  let* pt_kind = Json.field "kind" Json.string path json in
  let* pt_dims = Json.field "dims" (Json.list Json.int) path json in
  let* pt_config = Json.field "config" Json.string path json in
  let* pt_metrics = Json.field "metrics" (Json.assoc Json.float) path json in
  Ok { pt_id; pt_kind; pt_dims; pt_config; pt_metrics }

let of_json_result json =
  let path = "bench" in
  let* () = Json.schema schema path json in
  let* doc_experiment = Json.field "experiment" Json.string path json in
  let* doc_quick = Json.field "quick" Json.bool path json in
  let* doc_points = Json.field "points" (Json.list point_of_json) path json in
  Ok { doc_experiment; doc_quick; doc_points }

let filename exp = Printf.sprintf "BENCH_%s.json" exp

let write_file path doc = Json.write_file ~indent:2 path (to_json doc)

let read_file path = Json.load of_json_result path

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type direction = Lower_better | Higher_better | Exact

(* Relative headroom per metric. The simulator is deterministic, so
   these absorb deliberate cost-model tweaks, not noise: runtime-ish
   metrics get 2%, cache-miss counts (sensitive to small layout
   changes) 5%, and pure work/traffic metrics must match exactly. *)
let tolerances =
  [
    ("cycles", (0.02, Lower_better));
    ("instructions", (0.02, Lower_better));
    ("branches", (0.02, Lower_better));
    ("cache_references", (0.02, Lower_better));
    ("l1_misses", (0.05, Lower_better));
    ("l2_misses", (0.05, Lower_better));
    ("dma_transactions", (0.0, Exact));
    ("dma_words", (0.0, Exact));
    ("accel_busy_cycles", (0.02, Exact));
    ("flops", (0.0, Exact));
    ("gflops_per_cycle", (0.02, Higher_better));
  ]

type finding = {
  f_point : string;
  f_metric : string;
  f_baseline : float;
  f_fresh : float;
  f_rel : float;
}

type verdict = {
  v_experiment : string;
  v_compared : int;
  v_regressions : finding list;
  v_improvements : finding list;
  v_missing : string list;
  v_extra : string list;
}

let compare_docs ~baseline ~fresh =
  let compared = ref 0 in
  let regressions = ref [] and improvements = ref [] in
  let fresh_by_id = List.map (fun p -> (p.pt_id, p)) fresh.doc_points in
  let missing =
    List.filter_map
      (fun p -> if List.mem_assoc p.pt_id fresh_by_id then None else Some p.pt_id)
      baseline.doc_points
  in
  let base_ids = List.map (fun p -> p.pt_id) baseline.doc_points in
  let extra =
    List.filter_map
      (fun p -> if List.mem p.pt_id base_ids then None else Some p.pt_id)
      fresh.doc_points
  in
  List.iter
    (fun bp ->
      match List.assoc_opt bp.pt_id fresh_by_id with
      | None -> ()
      | Some fp ->
        List.iter
          (fun (metric, base) ->
            match List.assoc_opt metric fp.pt_metrics with
            | None -> ()
            | Some value ->
              incr compared;
              let rel =
                (value -. base) /. if Float.abs base > 0.0 then Float.abs base else 1.0
              in
              let tol, dir =
                match List.assoc_opt metric tolerances with
                | Some td -> td
                | None -> (0.0, Exact)
              in
              let finding =
                { f_point = bp.pt_id; f_metric = metric; f_baseline = base; f_fresh = value;
                  f_rel = rel }
              in
              let worse, better =
                match dir with
                | Lower_better -> (rel > tol, rel < -.tol)
                | Higher_better -> (rel < -.tol, rel > tol)
                | Exact -> (Float.abs rel > tol, false)
              in
              if worse then regressions := finding :: !regressions
              else if better then improvements := finding :: !improvements)
          bp.pt_metrics)
    baseline.doc_points;
  {
    v_experiment = baseline.doc_experiment;
    v_compared = !compared;
    v_regressions = List.rev !regressions;
    v_improvements = List.rev !improvements;
    v_missing = missing;
    v_extra = extra;
  }

let ok v = v.v_regressions = [] && v.v_missing = [] && v.v_extra = []

let render_finding verb f =
  Printf.sprintf "  %s %s %s: %g -> %g (%+.2f%%)" verb f.f_point f.f_metric f.f_baseline
    f.f_fresh (100.0 *. f.f_rel)

let render_verdict v =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d comparisons, %d regression(s), %d improvement(s)%s\n"
       v.v_experiment v.v_compared
       (List.length v.v_regressions)
       (List.length v.v_improvements)
       (if v.v_missing = [] && v.v_extra = [] then ""
        else
          Printf.sprintf ", %d missing, %d extra point(s)" (List.length v.v_missing)
            (List.length v.v_extra)));
  List.iter
    (fun f -> Buffer.add_string buf (render_finding "REGRESSION" f ^ "\n"))
    v.v_regressions;
  List.iter
    (fun f -> Buffer.add_string buf (render_finding "improvement" f ^ "\n"))
    v.v_improvements;
  List.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "  MISSING %s (in baseline only)\n" id))
    v.v_missing;
  List.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "  EXTRA %s (not in baseline)\n" id))
    v.v_extra;
  Buffer.contents buf
