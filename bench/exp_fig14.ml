(* Fig. 14: MatMul problem permutations on the flexible v4 accelerator.
   Heuristics As/Bs/Cs-squareTile pick the best square tile for a fixed
   stationary flow; "Best" searches all flows and (non-square) tile
   shapes. Every chosen configuration is then actually compiled and run.

   Paper shape: the best square flow changes with the problem
   permutation, and Best beats the square strategies by exploiting
   flexible tile sizes. *)

let problems () =
  let perms = Util.permutations [ 32; 256; 512 ] in
  let triples =
    List.map (function [ a; b; c ] -> (a, b, c) | _ -> assert false) perms
  in
  if !Report.quick then [ List.hd triples ] else triples

let measure_choice bench ~m ~n ~k choice =
  let options = Heuristics.options_of_choice bench.Axi4mlir.accel choice in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  Report.ms bench (Report.generated_matmul_counters bench ~options ~m ~n ~k ~a ~b ~c ())

let run () =
  Report.header "Fig. 14: v4_16 tiling/dataflow heuristics on permutations of (32, 256, 512)";
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  let t =
    Tabulate.create
      [
        ("MxNxK", Tabulate.Left);
        ("As-squareTile", Tabulate.Right);
        ("Bs-squareTile", Tabulate.Right);
        ("Cs-squareTile", Tabulate.Right);
        ("Best", Tabulate.Right);
        ("Best config", Tabulate.Left);
      ]
  in
  List.iter
    (fun (m, n, k) ->
      let bench = Axi4mlir.create accel in
      let square flow =
        match Heuristics.square_tile accel ~flow ~m ~n ~k with
        | Some choice -> Tabulate.fmt_ms (measure_choice bench ~m ~n ~k choice)
        | None -> "-"
      in
      let best_cell, best_config =
        match Heuristics.best accel ~m ~n ~k with
        | Some choice ->
          ( Tabulate.fmt_ms (measure_choice bench ~m ~n ~k choice),
            Printf.sprintf "%s tM=%d tN=%d tK=%d" choice.Heuristics.flow
              choice.Heuristics.tm choice.Heuristics.tn choice.Heuristics.tk )
        | None -> ("-", "-")
      in
      Tabulate.add_row t
        [
          Printf.sprintf "%dx%dx%d" m n k;
          square "As";
          square "Bs";
          square "Cs";
          best_cell;
          best_config;
        ])
    (problems ());
  Tabulate.print t;
  Report.note
    "Paper shape: the winning square flow depends on the problem shape; Best's flexible \
     (non-square) tiles outperform square tiling."
