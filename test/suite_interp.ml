(* Direct interpreter tests: op-by-op semantics, user function calls,
   cost charging, and error reporting. The e2e suite covers whole
   pipelines; this one pins the interpreter itself. *)

let soc () = Soc.create ()

let run_module ?(args = []) soc modul name =
  let interp = Interp.create soc modul in
  Interp.invoke interp name args

let simple_func name args ?(results = []) body =
  Ir.module_op [ Func.func_op (Ir.context ()) ~name ~args ~results body ]

let test_arith_ops () =
  let m =
    simple_func "f" [ Ty.index; Ty.index ] ~results:[ Ty.index; Ty.index; Ty.index ]
      (fun b args ->
        match args with
        | [ x; y ] ->
          let s = Arith.addi b x y in
          let d = Arith.subi b x y in
          let p = Arith.muli b x y in
          Func.return_op b [ s; d; p ]
        | _ -> assert false)
  in
  match run_module (soc ()) m "f" ~args:[ Interp.I 10; Interp.I 3 ] with
  | [ Interp.I 13; Interp.I 7; Interp.I 30 ] -> ()
  | _ -> Alcotest.fail "integer arithmetic"

let test_float_ops () =
  let m =
    simple_func "f" [] ~results:[ Ty.f32 ] (fun b _ ->
        let a = Arith.constant_f32 b 1.5 in
        let c = Arith.constant_f32 b 2.0 in
        let p = Arith.mulf b a c in
        let s = Arith.addf b p a in
        Func.return_op b [ s ])
  in
  match run_module (soc ()) m "f" with
  | [ Interp.F v ] -> Alcotest.(check (float 1e-9)) "float chain" 4.5 v
  | _ -> Alcotest.fail "float arithmetic"

let test_loop_semantics () =
  (* sum 0..9 via memref accumulation *)
  let m =
    simple_func "f" [] ~results:[ Ty.f32 ] (fun b _ ->
        let acc = Memref_d.alloc b (Ty.memref [ 1 ] Ty.F32) in
        let zero = Arith.constant_index b 0 in
        let one = Arith.constant_f32 b 1.0 in
        Scf.for_range b ~lb:0 ~ub:10 ~step:1 (fun b _iv ->
            let cur = Memref_d.load b acc [ zero ] in
            let next = Arith.addf b cur one in
            Memref_d.store b next acc [ zero ]);
        let final = Memref_d.load b acc [ zero ] in
        Func.return_op b [ final ])
  in
  match run_module (soc ()) m "f" with
  | [ Interp.F v ] -> Alcotest.(check (float 1e-9)) "loop trip count" 10.0 v
  | _ -> Alcotest.fail "loop"

let test_loop_bounds_and_step () =
  let m =
    simple_func "f" [] ~results:[ Ty.f32 ] (fun b _ ->
        let acc = Memref_d.alloc b (Ty.memref [ 1 ] Ty.F32) in
        let zero = Arith.constant_index b 0 in
        let one = Arith.constant_f32 b 1.0 in
        (* lb 2, ub 11, step 3 -> iterations at 2, 5, 8 *)
        Scf.for_range b ~lb:2 ~ub:11 ~step:3 (fun b _ ->
            let cur = Memref_d.load b acc [ zero ] in
            Memref_d.store b (Arith.addf b cur one) acc [ zero ]);
        Func.return_op b [ Memref_d.load b acc [ zero ] ])
  in
  match run_module (soc ()) m "f" with
  | [ Interp.F v ] -> Alcotest.(check (float 1e-9)) "strided trip count" 3.0 v
  | _ -> Alcotest.fail "loop bounds"

let test_subview_load_store () =
  let s = soc () in
  let buf = Sim_memory.alloc s.Soc.memory ~label:"m" 16 in
  Array.iteri (fun i _ -> buf.Sim_memory.data.(i) <- float_of_int i) buf.Sim_memory.data;
  let view = Memref_view.of_buffer buf [ 4; 4 ] in
  let m =
    simple_func "f" [ Ty.memref [ 4; 4 ] Ty.F32 ] ~results:[ Ty.f32 ] (fun b args ->
        match args with
        | [ mem ] ->
          let one = Arith.constant_index b 1 in
          let two = Arith.constant_index b 2 in
          let sub = Memref_d.subview b mem ~offsets:[ one; two ] ~sizes:[ 2; 2 ] in
          let zero = Arith.constant_index b 0 in
          (* sub[0][0] = source[1][2] = 6 *)
          let v = Memref_d.load b sub [ zero; zero ] in
          Memref_d.store b v sub [ one; one ];
          Func.return_op b [ v ]
        | _ -> assert false)
  in
  (match run_module s m "f" ~args:[ Interp.M view ] with
  | [ Interp.F v ] -> Alcotest.(check (float 1e-9)) "subview read" 6.0 v
  | _ -> Alcotest.fail "subview");
  (* sub[1][1] = source[2][3] = index 11 *)
  Alcotest.(check (float 1e-9)) "subview write" 6.0 (Sim_memory.get buf 11)

let test_user_function_call () =
  let ctx = Ir.context () in
  let callee =
    Func.func_op ctx ~name:"double" ~args:[ Ty.index ] ~results:[ Ty.index ] (fun b args ->
        match args with
        | [ x ] -> Func.return_op b [ Arith.addi b x x ]
        | _ -> assert false)
  in
  let caller =
    Func.func_op ctx ~name:"main" ~args:[] ~results:[ Ty.index ] (fun b _ ->
        let c = Arith.constant_index b 21 in
        match Func.call b ~callee:"double" ~results:[ Ty.index ] [ c ] with
        | [ r ] -> Func.return_op b [ r ]
        | _ -> assert false)
  in
  match run_module (soc ()) (Ir.module_op [ callee; caller ]) "main" with
  | [ Interp.I 42 ] -> ()
  | _ -> Alcotest.fail "user call"

let test_cost_charging () =
  let s = soc () in
  let m =
    simple_func "f" [] (fun b _ ->
        Scf.for_range b ~lb:0 ~ub:100 ~step:1 (fun b iv -> ignore (Arith.addi b iv iv));
        Func.return_op b [])
  in
  ignore (run_module s m "f");
  let c = s.Soc.counters in
  (* 100 loop iterations: 100 branches; 100 addi + 3 bound constants *)
  Alcotest.(check (float 0.0)) "branches" 100.0 c.Perf_counters.branches;
  Alcotest.(check bool) "cycles accumulated" true (c.Perf_counters.cycles > 300.0)

let expect_error f =
  match f () with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a runtime error"

let test_errors () =
  let s = soc () in
  (* unknown function *)
  let empty = Ir.module_op [] in
  expect_error (fun () -> run_module s empty "nope");
  (* arity mismatch *)
  let m = simple_func "f" [ Ty.index ] (fun b _ -> Func.return_op b []) in
  expect_error (fun () -> run_module s m "f" ~args:[]);
  (* type mismatch: float where int expected *)
  let m2 =
    simple_func "g" [ Ty.index ] ~results:[ Ty.index ] (fun b args ->
        match args with
        | [ x ] -> Func.return_op b [ Arith.addi b x x ]
        | _ -> assert false)
  in
  expect_error (fun () -> run_module s m2 "g" ~args:[ Interp.F 1.0 ]);
  (* accel op before dma_init *)
  let m3 =
    simple_func "h" [] (fun b _ ->
        let lit = Arith.constant_i32 b 0xFF in
        let off = Arith.constant_i32 b 0 in
        ignore (Accel.send_literal ~flush:true b ~literal:lit ~offset:off);
        Func.return_op b [])
  in
  expect_error (fun () -> run_module s m3 "h");
  (* unsupported op *)
  let weird =
    Ir.module_op
      [
        Ir.op "func.func"
          ~attrs:
            [
              ("sym_name", Attribute.Str "w");
              ("function_type", Attribute.Type_attr (Ty.Func ([], [])));
            ]
          ~regions:[ [ Ir.block [ Ir.op "mystery.op"; Ir.op "func.return" ] ] ];
      ]
  in
  expect_error (fun () -> run_module s weird "w")

(* A value no op binds: the error names it, not an index error. *)
let test_unbound_value () =
  let m =
    simple_func "u" [] ~results:[ Ty.index ] (fun b _ ->
        Func.return_op b [ Builder.fresh b Ty.index ])
  in
  match run_module (soc ()) m "u" with
  | _ -> Alcotest.fail "unbound value read"
  | exception Interp.Runtime_error msg ->
    Alcotest.(check string) "message" "use of unbound value %v0 (of type index)" msg

let test_linalg_rejected () =
  let m = Axi4mlir.build_matmul_module ~m:4 ~n:4 ~k:4 () in
  let s = soc () in
  let buf label = Sim_memory.alloc s.Soc.memory ~label 16 in
  let v label = Memref_view.of_buffer (buf label) [ 4; 4 ] in
  expect_error (fun () ->
      run_module s m "matmul_call"
        ~args:[ Interp.M (v "a"); Interp.M (v "b"); Interp.M (v "c") ])

let test_index_cast () =
  let m =
    simple_func "f" [] ~results:[ Ty.i32 ] (fun b _ ->
        let idx = Arith.constant_index b 7 in
        Func.return_op b [ Arith.index_cast b idx ])
  in
  match run_module (soc ()) m "f" with
  | [ Interp.I 7 ] -> ()
  | _ -> Alcotest.fail "index_cast"

let tests =
  [
    Alcotest.test_case "integer arithmetic" `Quick test_arith_ops;
    Alcotest.test_case "float arithmetic" `Quick test_float_ops;
    Alcotest.test_case "loop semantics" `Quick test_loop_semantics;
    Alcotest.test_case "loop bounds and step" `Quick test_loop_bounds_and_step;
    Alcotest.test_case "subview load/store" `Quick test_subview_load_store;
    Alcotest.test_case "user function calls" `Quick test_user_function_call;
    Alcotest.test_case "cost charging" `Quick test_cost_charging;
    Alcotest.test_case "runtime errors" `Quick test_errors;
    Alcotest.test_case "use of an unbound value" `Quick test_unbound_value;
    Alcotest.test_case "linalg requires lowering" `Quick test_linalg_rejected;
    Alcotest.test_case "index cast" `Quick test_index_cast;
  ]
