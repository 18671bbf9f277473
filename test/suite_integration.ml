(* Cross-cutting integration tests: multi-kernel modules, heuristic
   ranking consistency, pretty printing, and extension properties on
   random problems. *)

let zero c = Memref_view.fill_from c (Array.make (Memref_view.num_elements c) 0.0)

(* A module with two matmul kernels back to back: dma_init must be
   emitted once, init_opcodes once per kernel (paper Sec. III-C). *)
let test_two_kernels_one_init () =
  let m1, n1, k1 = (8, 8, 8) and m2, n2, k2 = (12, 8, 4) in
  let tys dims = List.map (fun (a, b) -> Ty.memref [ a; b ] Ty.F32) dims in
  let f =
    Func.func_op (Ir.context ()) ~name:"two_matmuls"
      ~args:(tys [ (m1, k1); (k1, n1); (m1, n1); (m2, k2); (k2, n2); (m2, n2) ])
      (fun b args ->
        match args with
        | [ a1; b1; c1; a2; b2; c2 ] ->
          ignore (Linalg.matmul b ~a:a1 ~b:b1 ~c:c1);
          ignore (Linalg.matmul b ~a:a2 ~b:b2 ~c:c2);
          Func.return_op b []
        | _ -> assert false)
  in
  let modul = Ir.module_op [ f ] in
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Cs" () in
  let bench = Axi4mlir.create accel in
  let compiled = Axi4mlir.compile bench modul in
  (* exactly one dma_init call, two resets (one per kernel) *)
  let calls name =
    Ir.count_ops
      (fun o ->
        o.Ir.name = "func.call" && Ir.attr o "callee" = Some (Attribute.Str name))
      compiled
  in
  Alcotest.(check int) "one dma_init" 1 (calls Runtime_abi.(name Dma_init));
  (* run it: both outputs must be correct *)
  let alloc label rows cols =
    let buf = Sim_memory.alloc bench.Axi4mlir.soc.Soc.memory ~label (rows * cols) in
    Gold.fill_deterministic ~seed:(Hashtbl.hash label) buf.Sim_memory.data;
    Memref_view.of_buffer buf [ rows; cols ]
  in
  let a1 = alloc "a1" m1 k1 and b1 = alloc "b1" k1 n1 and c1 = alloc "c1" m1 n1 in
  let a2 = alloc "a2" m2 k2 and b2 = alloc "b2" k2 n2 and c2 = alloc "c2" m2 n2 in
  zero c1;
  zero c2;
  let gold1 = Gold.matmul ~m:m1 ~n:n1 ~k:k1 (Memref_view.to_array a1) (Memref_view.to_array b1) in
  let gold2 = Gold.matmul ~m:m2 ~n:n2 ~k:k2 (Memref_view.to_array a2) (Memref_view.to_array b2) in
  Axi4mlir.run_func bench compiled "two_matmuls"
    [ Interp.M a1; Interp.M b1; Interp.M c1; Interp.M a2; Interp.M b2; Interp.M c2 ];
  Alcotest.(check bool) "first kernel" true
    (Gold.max_abs_diff gold1 (Memref_view.to_array c1) < 1e-9);
  Alcotest.(check bool) "second kernel" true
    (Gold.max_abs_diff gold2 (Memref_view.to_array c2) < 1e-9)

(* The analytic cost estimate must rank configurations consistently with
   measurement: for each problem, the measured-best configuration must
   be within the top 3 predicted. *)
let test_heuristic_ranking_consistency () =
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  List.iter
    (fun (m, n, k) ->
      let bench = Axi4mlir.create accel in
      let configs =
        List.concat_map
          (fun flow ->
            List.map (fun t -> (flow, t)) (Heuristics.candidate_tiles accel ~m ~n ~k))
          [ "Ns"; "As"; "Bs"; "Cs" ]
      in
      let scored =
        List.map
          (fun (flow, (tm, tn, tk)) ->
            let predicted =
              Heuristics.estimate_cycles accel ~cost:Cost_model.default ~flow ~m ~n ~k ~tm
                ~tn ~tk
            in
            ((flow, (tm, tn, tk)), predicted))
          configs
      in
      let ranked = List.sort (fun (_, a) (_, b) -> compare a b) scored in
      (* measure the top 6 predicted and check the predicted-best is
         within 20% of the measured-best among them *)
      let measured =
        List.map
          (fun ((flow, (tm, tn, tk)), _) ->
            let options =
              { Axi4mlir.default_codegen with flow = Some flow; tiles = Some [ tm; tn; tk ] }
            in
            let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
            let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
            let counters =
              Axi4mlir.measure bench (fun () ->
                  Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
            in
            counters.Perf_counters.cycles)
          (Util.list_take 6 ranked)
      in
      match measured with
      | best_predicted :: _ ->
        let best_measured = List.fold_left min best_predicted measured in
        Alcotest.(check bool)
          (Printf.sprintf "%dx%dx%d: predicted-best within 20%% of measured-best" m n k)
          true
          (best_predicted <= best_measured *. 1.2)
      | [] -> Alcotest.fail "no configurations")
    [ (32, 64, 128); (64, 64, 64) ]

let test_pretty_printer_smoke () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"As" () in
  let bench = Axi4mlir.create accel in
  let options = { Axi4mlir.default_codegen with to_runtime_calls = false } in
  let ir = Axi4mlir.compile_matmul bench ~options ~m:8 ~n:8 ~k:8 () in
  let pretty = Printer.to_pretty ir in
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle in
        let rec go i =
          i + nl <= String.length pretty && (String.sub pretty i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("pretty output mentions " ^ needle) true contains)
    [
      "func.func @matmul_call";
      "scf.for";
      "memref.subview";
      "accel.send";
      "accel.recv";
      "mode = \"accumulate\"";
      "accel.dma_init";
    ]

let prop_extensions_preserve_results =
  QCheck.Test.make ~name:"coalescing/double-buffering preserve results on random problems"
    ~count:25
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 0 3))
    (fun (mt, nt, kt, pick) ->
      let flow = List.nth [ "Ns"; "As"; "Bs"; "Cs" ] pick in
      let m, n, k = (4 * mt, 4 * nt, 4 * kt) in
      let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow () in
      let bench = Axi4mlir.create accel in
      let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
      let gold = Gold.matmul ~m ~n ~k (Memref_view.to_array a) (Memref_view.to_array b) in
      let options =
        {
          Axi4mlir.default_codegen with
          coalesce_transfers = true;
          double_buffer = true;
        }
      in
      let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
      Axi4mlir.run_matmul bench ~options ir ~a ~b ~c;
      Gold.max_abs_diff gold (Memref_view.to_array c) < 1e-9)

(* Random attribute trees must survive print -> parse. *)
let gen_attr =
  QCheck.Gen.(
    sized @@ fix (fun self fuel ->
        let leaf =
          oneof
            [
              pure Attribute.Unit;
              map (fun b -> Attribute.Bool b) bool;
              map (fun i -> Attribute.Int i) (int_range (-1000) 1000);
              map (fun s -> Attribute.Str s)
                (string_size ~gen:(char_range 'a' 'z') (1 -- 8));
              map (fun l -> Attribute.Ints l) (list_size (0 -- 4) (0 -- 64));
              pure (Attribute.Affine (Affine_map.projection ~n_dims:3 [ 0; 2 ]));
            ]
        in
        if fuel <= 1 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Attribute.Array l) (list_size (1 -- 3) (self (fuel / 2)));
              map
                (fun l ->
                  Attribute.Dict (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
                (list_size (1 -- 3) (self (fuel / 2)));
            ]))

let prop_attribute_roundtrip =
  QCheck.Test.make ~name:"random attributes print/parse roundtrip" ~count:200
    (QCheck.make gen_attr) (fun attr ->
      let printed = Attribute.to_string attr in
      match Parser_ir.parse_attribute printed with
      | reparsed -> Attribute.to_string reparsed = printed
      | exception Parser_ir.Parse_error _ -> false)

let tests =
  [
    Alcotest.test_case "two kernels, one dma_init" `Quick test_two_kernels_one_init;
    Alcotest.test_case "heuristic ranking vs measurement" `Slow
      test_heuristic_ranking_consistency;
    Alcotest.test_case "pretty printer smoke" `Quick test_pretty_printer_smoke;
    QCheck_alcotest.to_alcotest prop_extensions_preserve_results;
    QCheck_alcotest.to_alcotest prop_attribute_roundtrip;
  ]
