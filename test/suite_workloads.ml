(* Tests for the workload layer: heuristics, ResNet-18 and TinyBERT. *)

let v4 = Presets.matmul ~version:Accel_matmul.V4 ~size:16 ()

let test_transfer_elems_formulas () =
  let m, n, k = (64, 64, 64) in
  let t ~flow = Heuristics.transfer_elems ~flow ~m ~n ~k ~tm:16 ~tn:16 ~tk:16 in
  (* Ns moves every tile every iteration: 64 iterations * 3 * 256 *)
  Alcotest.(check (float 0.0)) "Ns" (64.0 *. 3.0 *. 256.0) (t ~flow:"Ns");
  (* stationary flows strictly reduce traffic *)
  Alcotest.(check bool) "As < Ns" true (t ~flow:"As" < t ~flow:"Ns");
  Alcotest.(check bool) "Bs < Ns" true (t ~flow:"Bs" < t ~flow:"Ns");
  Alcotest.(check bool) "Cs < Ns" true (t ~flow:"Cs" < t ~flow:"Ns");
  (* A-stationary saves exactly the redundant A transfers *)
  Alcotest.(check (float 0.0)) "As saving"
    (t ~flow:"Ns" -. (float_of_int (64 - 16) /. 16.0 *. 16.0 *. 256.0))
    (t ~flow:"As")

let test_candidate_tiles () =
  let candidates = Heuristics.candidate_tiles v4 ~m:32 ~n:256 ~k:512 in
  Alcotest.(check bool) "non-empty" true (candidates <> []);
  List.iter
    (fun (tm, tn, tk) ->
      Alcotest.(check bool) "granularity" true (tm mod 16 = 0 && tn mod 16 = 0 && tk mod 16 = 0);
      Alcotest.(check bool) "divides" true (32 mod tm = 0 && 256 mod tn = 0 && 512 mod tk = 0);
      Alcotest.(check bool) "buffers" true
        (tm * tk <= 4096 && tk * tn <= 4096 && tm * tn <= 4096))
    candidates;
  (* fixed-size engines admit exactly their square tile *)
  let v3 = Presets.matmul ~version:Accel_matmul.V3 ~size:16 () in
  Alcotest.(check (list (triple int int int))) "v3 single candidate" [ (16, 16, 16) ]
    (Heuristics.candidate_tiles v3 ~m:32 ~n:32 ~k:32)

let test_square_tile_heuristic () =
  match Heuristics.square_tile v4 ~flow:"Cs" ~m:32 ~n:256 ~k:512 with
  | Some choice ->
    Alcotest.(check int) "largest feasible square" 32 choice.Heuristics.tm;
    Alcotest.(check bool) "square" true
      (choice.Heuristics.tm = choice.Heuristics.tn && choice.Heuristics.tn = choice.Heuristics.tk)
  | None -> Alcotest.fail "no square tile found"

let test_square_tile_infeasible () =
  (* dims not divisible by the granularity *)
  Alcotest.(check bool) "infeasible" true
    (Heuristics.square_tile v4 ~flow:"Ns" ~m:30 ~n:30 ~k:30 = None)

let test_best_beats_squares () =
  (* on a skinny problem the Best heuristic must be at least as good as
     every square-tile heuristic under its own cost estimate *)
  List.iter
    (fun (m, n, k) ->
      match Heuristics.best v4 ~m ~n ~k with
      | None -> Alcotest.fail "Best found nothing"
      | Some best ->
        List.iter
          (fun flow ->
            match Heuristics.square_tile v4 ~flow ~m ~n ~k with
            | None -> ()
            | Some sq ->
              let sq_cycles =
                Heuristics.estimate_cycles v4 ~cost:Cost_model.default ~flow ~m ~n ~k
                  ~tm:sq.Heuristics.tm ~tn:sq.Heuristics.tn ~tk:sq.Heuristics.tk
              in
              Alcotest.(check bool)
                (Printf.sprintf "%dx%dx%d: Best (%s %d,%d,%d: %.0f) <= %s-square (%.0f)" m
                   n k best.Heuristics.flow best.Heuristics.tm best.Heuristics.tn
                   best.Heuristics.tk best.Heuristics.predicted_cycles flow sq_cycles)
                true
                (best.Heuristics.predicted_cycles <= sq_cycles +. 1e-6))
          [ "As"; "Bs"; "Cs" ])
    (List.map
       (fun p -> match p with [ a; b; c ] -> (a, b, c) | _ -> assert false)
       (Util.permutations [ 32; 256; 512 ]))

let test_best_uses_flexibility () =
  (* for a tall-skinny problem the best tile should not be square *)
  match Heuristics.best v4 ~m:32 ~n:256 ~k:512 with
  | None -> Alcotest.fail "no choice"
  | Some c ->
    Alcotest.(check bool)
      (Printf.sprintf "non-square tiles chosen (%d,%d,%d)" c.Heuristics.tm c.Heuristics.tn
         c.Heuristics.tk)
      true
      (not (c.Heuristics.tm = c.Heuristics.tn && c.Heuristics.tn = c.Heuristics.tk))

let test_resnet_layers () =
  Alcotest.(check int) "eleven layers" 11 (List.length Resnet18.layers);
  List.iter
    (fun (l : Resnet18.layer) ->
      Alcotest.(check bool) (l.Resnet18.label ^ " fits the engine") true
        (l.Resnet18.ic * l.Resnet18.fhw * l.Resnet18.fhw <= Accel_conv.buffer_capacity_elems);
      Alcotest.(check bool) "positive output" true (l.Resnet18.ohw > 0);
      Alcotest.(check int) "output edge"
        (Gold.conv_out l.Resnet18.ihw ~fhw:l.Resnet18.fhw ~stride:l.Resnet18.stride)
        l.Resnet18.ohw;
      Alcotest.(check bool) "macs positive" true (Resnet18.macs l > 0))
    Resnet18.layers;
  (* the paper's slowdown layer exists *)
  Alcotest.(check bool) "56_64_1_128_2 present" true (Resnet18.find "56_64_1_128_2" <> None);
  Alcotest.(check bool) "unknown absent" true (Resnet18.find "nope" = None)

let test_tinybert_shapes () =
  let shapes = Tinybert.matmul_shapes ~batch:2 ~seq:128 in
  Alcotest.(check int) "six shape classes" 6 (List.length shapes);
  let find name = List.find (fun s -> s.Tinybert.mm_name = name) shapes in
  let qkv = find "qkv_proj" in
  Alcotest.(check int) "qkv count" (3 * 2 * 4) qkv.Tinybert.count;
  Alcotest.(check int) "qkv k" 312 qkv.Tinybert.k;
  let scores = find "attn_scores" in
  Alcotest.(check int) "scores per head" (12 * 2 * 4) scores.Tinybert.count;
  Alcotest.(check int) "head dim" 26 scores.Tinybert.k;
  Alcotest.(check int) "ffn up n" 1200 (find "ffn_up").Tinybert.n;
  Alcotest.(check bool) "macs in the hundreds of millions" true
    (Tinybert.total_matmul_macs ~batch:2 ~seq:128 > 300_000_000)

let test_pad16 () =
  Alcotest.(check int) "312" 320 (Tinybert.pad16 312);
  Alcotest.(check int) "26" 32 (Tinybert.pad16 26);
  Alcotest.(check int) "128" 128 (Tinybert.pad16 128)

let test_non_matmul_cycles_positive () =
  let cycles = Tinybert.non_matmul_cpu_cycles ~cost:Cost_model.default ~batch:2 ~seq:128 in
  Alcotest.(check bool) "positive" true (cycles > 0.0);
  (* should be of the same order as, but smaller than, the matmul work *)
  let macs = float_of_int (Tinybert.total_matmul_macs ~batch:2 ~seq:128) in
  Alcotest.(check bool) "smaller than matmul cycles at ~10cyc/mac" true
    (cycles < macs *. 10.0)

(* choose: the default selection the autotuner must never lose to *)

let test_choose_flexible_is_best () =
  (* on a flexible engine, choose = best *)
  match (Heuristics.choose v4 ~m:32 ~n:256 ~k:512, Heuristics.best v4 ~m:32 ~n:256 ~k:512) with
  | Some chosen, Some best ->
    Alcotest.(check string) "same flow" best.Heuristics.flow chosen.Heuristics.flow;
    Alcotest.(check (triple int int int)) "same tiles"
      (best.Heuristics.tm, best.Heuristics.tn, best.Heuristics.tk)
      (chosen.Heuristics.tm, chosen.Heuristics.tn, chosen.Heuristics.tk)
  | _ -> Alcotest.fail "choose/best found nothing on a feasible problem"

let test_choose_fixed_engine () =
  (* a fixed-size engine takes its own square tile under the config's
     selected flow *)
  let v3 = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Cs" () in
  (match Heuristics.choose v3 ~m:32 ~n:48 ~k:64 with
  | Some c ->
    Alcotest.(check string) "selected flow" "Cs" c.Heuristics.flow;
    Alcotest.(check (triple int int int)) "square engine tile" (16, 16, 16)
      (c.Heuristics.tm, c.Heuristics.tn, c.Heuristics.tk)
  | None -> Alcotest.fail "dividing dims must be feasible");
  (* non-dividing dims: nothing feasible, the op stays on the CPU path *)
  Alcotest.(check bool) "non-dividing -> None" true
    (Heuristics.choose v3 ~m:30 ~n:32 ~k:32 = None)

(* The one rule that turns a choice into codegen options *)

let test_best_options () =
  let options_of config ~m ~n ~k =
    let o = Heuristics.best_options config ~m ~n ~k in
    (o.Axi4mlir.flow, o.Axi4mlir.tiles)
  in
  let flow_tiles = Alcotest.(pair (option string) (option (list int))) in
  (match Heuristics.best v4 ~m:32 ~n:256 ~k:512 with
  | Some c ->
    Alcotest.(check flow_tiles) "flexible v4_16 gets Best's flow and tiles"
      (Some c.Heuristics.flow, Some [ c.Heuristics.tm; c.Heuristics.tn; c.Heuristics.tk ])
      (options_of v4 ~m:32 ~n:256 ~k:512)
  | None -> Alcotest.fail "Best found nothing on a feasible problem");
  let v3 = Presets.matmul ~version:Accel_matmul.V3 ~size:16 () in
  (match Heuristics.best v3 ~m:32 ~n:48 ~k:64 with
  | Some c ->
    Alcotest.(check flow_tiles) "fixed v3_16 gets the flow, never tiles"
      (Some c.Heuristics.flow, None)
      (options_of v3 ~m:32 ~n:48 ~k:64);
    Alcotest.(check bool) "options_of_choice agrees" true
      (Heuristics.options_of_choice v3 c = Heuristics.best_options v3 ~m:32 ~n:48 ~k:64)
  | None -> Alcotest.fail "v3_16 tiles dividing dims");
  (* no feasible tiling: the pipeline's own defaults *)
  Alcotest.(check bool) "infeasible -> default_codegen" true
    (Heuristics.best_options v3 ~m:30 ~n:32 ~k:32 = Axi4mlir.default_codegen)

(* Property: whatever choose returns fits the engine and divides the
   problem — the contract the autotuner's baseline leans on. *)
let prop_choose_fits =
  QCheck.Test.make ~name:"chosen tile divides dims and fits the buffers" ~count:80
    QCheck.(quad (1 -- 8) (1 -- 8) (1 -- 8) (0 -- 4))
    (fun (mt, nt, kt, pick) ->
      let config =
        match pick with
        | 0 -> Presets.matmul ~version:Accel_matmul.V1 ~size:8 ()
        | 1 -> Presets.matmul ~version:Accel_matmul.V2 ~size:8 ~flow:"As" ()
        | 2 -> Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Cs" ()
        | 3 -> Presets.matmul ~version:Accel_matmul.V4 ~size:8 ()
        | _ -> Presets.matmul ~version:Accel_matmul.V4 ~size:16 ()
      in
      let m, n, k = (8 * mt, 8 * nt, 8 * kt) in
      match Heuristics.choose config ~m ~n ~k with
      | None -> true (* declining is always allowed *)
      | Some { Heuristics.tm; tn; tk; _ } ->
        let cap = config.Accel_config.buffer_capacity_elems in
        m mod tm = 0 && n mod tn = 0 && k mod tk = 0
        && tm * tk <= cap && tk * tn <= cap && tm * tn <= cap)

(* Property: the transfer formula equals a direct simulation count of
   tile sends under the flow structure. *)
let prop_transfer_formula =
  QCheck.Test.make ~name:"transfer formula matches explicit enumeration" ~count:60
    QCheck.(quad (1 -- 4) (1 -- 4) (1 -- 4) (0 -- 3))
    (fun (mt, nt, kt, pick) ->
      let flow = List.nth [ "Ns"; "As"; "Bs"; "Cs" ] pick in
      let tm, tn, tk = (8, 4, 16) in
      let m, n, k = (mt * tm, nt * tn, kt * tk) in
      let a_count, b_count, c_count =
        match flow with
        | "Ns" -> (mt * nt * kt, mt * nt * kt, mt * nt * kt)
        | "As" -> (mt * kt, mt * nt * kt, mt * nt * kt)
        | "Bs" -> (mt * nt * kt, nt * kt, mt * nt * kt)
        | _ -> (mt * nt * kt, mt * nt * kt, mt * nt)
      in
      let expected =
        float_of_int ((a_count * tm * tk) + (b_count * tk * tn) + (c_count * tm * tn))
      in
      Heuristics.transfer_elems ~flow ~m ~n ~k ~tm ~tn ~tk = expected)

let tests =
  [
    Alcotest.test_case "transfer-volume formulas" `Quick test_transfer_elems_formulas;
    Alcotest.test_case "candidate tiles" `Quick test_candidate_tiles;
    Alcotest.test_case "square-tile heuristic" `Quick test_square_tile_heuristic;
    Alcotest.test_case "square-tile infeasible" `Quick test_square_tile_infeasible;
    Alcotest.test_case "Best dominates square tiles" `Quick test_best_beats_squares;
    Alcotest.test_case "Best exploits flexible tiles" `Quick test_best_uses_flexibility;
    Alcotest.test_case "ResNet-18 layer table" `Quick test_resnet_layers;
    Alcotest.test_case "TinyBERT shapes" `Quick test_tinybert_shapes;
    Alcotest.test_case "pad16" `Quick test_pad16;
    Alcotest.test_case "non-matmul cycle estimate" `Quick test_non_matmul_cycles_positive;
    Alcotest.test_case "choose: flexible engines use Best" `Quick test_choose_flexible_is_best;
    Alcotest.test_case "choose: fixed engines, square tile or CPU" `Quick
      test_choose_fixed_engine;
    Alcotest.test_case "best_options: tiles only on flexible engines" `Quick
      test_best_options;
    QCheck_alcotest.to_alcotest prop_choose_fits;
    QCheck_alcotest.to_alcotest prop_transfer_formula;
  ]
