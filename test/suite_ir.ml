(* Tests for the IR core, builder, verifier and dialect constructors. *)

let build_simple_func () =
  Func.func_op (Ir.context ()) ~name:"f" ~args:[ Ty.index; Ty.index ] (fun b args ->
      match args with
      | [ x; y ] ->
        let s = Arith.addi b x y in
        let _p = Arith.muli b s s in
        Func.return_op b []
      | _ -> assert false)

let test_builder_order () =
  let f = build_simple_func () in
  let names = List.map (fun (o : Ir.op) -> o.name) (Func.body_of f).body in
  Alcotest.(check (list string)) "emission order"
    [ "arith.addi"; "arith.muli"; "func.return" ]
    names

let test_builder_nest () =
  let b = Builder.create (Ir.context ()) in
  let c0 = Arith.constant_index b 0 in
  let c4 = Arith.constant_index b 4 in
  let c1 = Arith.constant_index b 1 in
  Scf.for_ b ~lb:c0 ~ub:c4 ~step:c1 (fun b iv -> ignore (Arith.addi b iv iv));
  let ops = Builder.finish b in
  Alcotest.(check int) "top level ops" 4 (List.length ops);
  let for_op = List.nth ops 3 in
  Alcotest.(check string) "loop name" "scf.for" for_op.Ir.name;
  let body = Ir.single_block for_op in
  Alcotest.(check (list string)) "loop body" [ "arith.addi"; "scf.yield" ]
    (List.map (fun (o : Ir.op) -> o.Ir.name) body.Ir.body)

let test_attrs () =
  let o = Ir.op "test.op" ~attrs:[ ("a", Attribute.Int 1) ] in
  Alcotest.(check bool) "has" true (Ir.has_attr o "a");
  let o = Ir.set_attr o "b" (Attribute.Str "x") in
  Alcotest.(check int) "get a" 1 (Attribute.get_int (Ir.attr_exn o "b" |> fun _ -> Ir.attr_exn o "a"));
  let o = Ir.set_attr o "a" (Attribute.Int 2) in
  Alcotest.(check int) "replace" 2 (Attribute.get_int (Ir.attr_exn o "a"));
  let o = Ir.remove_attr o "a" in
  Alcotest.(check bool) "removed" false (Ir.has_attr o "a");
  Alcotest.check_raises "missing attr" (Invalid_argument "op test.op: missing attribute 'zz'")
    (fun () -> ignore (Ir.attr_exn o "zz"))

let test_walk_and_find () =
  let f = build_simple_func () in
  let m = Ir.module_op [ f ] in
  Alcotest.(check int) "count adds" 1 (Ir.count_ops (fun o -> o.Ir.name = "arith.addi") m);
  Alcotest.(check int) "count all" 5
    (Ir.count_ops (fun _ -> true) m) (* module + func + 3 body ops *);
  let renamed =
    Ir.map_nested
      (fun o -> if o.Ir.name = "arith.addi" then { o with name = "arith.muli" } else o)
      m
  in
  Alcotest.(check int) "after rename" 2
    (Ir.count_ops (fun o -> o.Ir.name = "arith.muli") renamed)

let test_module_helpers () =
  let f = build_simple_func () in
  let m = Ir.module_op [ f ] in
  Alcotest.(check bool) "is module" true (Ir.is_module m);
  Alcotest.(check int) "body" 1 (List.length (Ir.module_body m));
  Alcotest.(check bool) "find_func" true (Func.find_func m "f" <> None);
  Alcotest.(check bool) "find_func miss" true (Func.find_func m "g" = None);
  let m2 = Ir.with_module_body m [] in
  Alcotest.(check int) "replaced body" 0 (List.length (Ir.module_body m2))

let test_verifier_accepts_valid () =
  let m = Ir.module_op [ build_simple_func () ] in
  match Verifier.verify m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_verifier_rejects_undefined_use () =
  let ctx = Ir.context () in
  let phantom = Ir.fresh_value ctx Ty.index in
  let f =
    Func.func_op ctx ~name:"bad" ~args:[ Ty.index ] (fun b args ->
        match args with
        | [ x ] ->
          ignore (Arith.addi b x phantom);
          Func.return_op b []
        | _ -> assert false)
  in
  match Verifier.verify (Ir.module_op [ f ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undefined use accepted"

let test_verifier_rejects_double_def () =
  let v = Ir.fresh_value (Ir.context ()) Ty.index in
  let dup = Ir.op "arith.constant" ~results:[ v ] ~attrs:[ ("value", Attribute.Int 0) ] in
  let ret = Ir.op "func.return" in
  let f =
    Ir.op "func.func"
      ~attrs:
        [
          ("sym_name", Attribute.Str "bad");
          ("function_type", Attribute.Type_attr (Ty.Func ([], [])));
        ]
      ~regions:[ [ Ir.block [ dup; dup; ret ] ] ]
  in
  match Verifier.verify (Ir.module_op [ f ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double definition accepted"

(* Definitions are scoped by block: a value defined in a loop body or
   in another function is not visible where it is used. *)

let expect_error name ~op ~reason m =
  match Verifier.verify_structured m with
  | Error e ->
    Alcotest.(check string) (name ^ ": failing op") op e.Verifier.failing_op;
    Alcotest.(check string) (name ^ ": reason") reason e.Verifier.reason
  | Ok () -> Alcotest.fail (name ^ ": accepted")

let test_verifier_rejects_loop_escape () =
  let escaped = ref None in
  let mem = Ty.memref [ 4; 4 ] Ty.F32 in
  let f =
    Func.func_op (Ir.context ()) ~name:"escape" ~args:[ mem; mem ] (fun b args ->
        match args with
        | [ src; dst ] ->
          let c0 = Arith.constant_index b 0 in
          let c4 = Arith.constant_index b 4 in
          let c1 = Arith.constant_index b 1 in
          Scf.for_ b ~lb:c0 ~ub:c4 ~step:c1 (fun b iv ->
              escaped := Some (Memref_d.load b src [ iv; iv ]));
          Memref_d.store b (Option.get !escaped) dst [ c0; c0 ];
          Func.return_op b []
        | _ -> assert false)
  in
  expect_error "loop escape" ~op:"memref.store"
    ~reason:(Printf.sprintf "use of undefined value %%v%d" (Option.get !escaped).Ir.vid)
    (Ir.module_op [ f ])

let test_verifier_rejects_cross_function_use () =
  let ctx = Ir.context () in
  let leaked = ref None in
  let f =
    Func.func_op ctx ~name:"f" ~args:[] (fun b _ ->
        leaked := Some (Arith.constant_index b 7);
        Func.return_op b [])
  in
  let v = Option.get !leaked in
  let g =
    Func.func_op ctx ~name:"g" ~args:[] (fun b _ ->
        ignore (Arith.addi b v v);
        Func.return_op b [])
  in
  expect_error "cross-function use" ~op:"arith.addi"
    ~reason:(Printf.sprintf "use of undefined value %%v%d" v.Ir.vid)
    (Ir.module_op [ f; g ])

(* An ended scope still remembers its definitions: one value id defined
   in two sibling blocks is a double definition. *)
let test_verifier_rejects_sibling_redefinition () =
  let ctx = Ir.context () in
  let v = Ir.fresh_value ctx Ty.index in
  let def = Ir.op "arith.constant" ~results:[ v ] ~attrs:[ ("value", Attribute.Int 0) ] in
  let f =
    Func.func_op ctx ~name:"siblings" ~args:[] (fun b _ ->
        Builder.emit b
          (Ir.op "test.two_blocks" ~regions:[ [ Ir.block [ def ]; Ir.block [ def ] ] ]);
        Func.return_op b [])
  in
  expect_error "sibling blocks" ~op:"arith.constant"
    ~reason:(Printf.sprintf "value %%v%d defined twice" v.Ir.vid)
    (Ir.module_op [ f ])

(* Values of two contexts must not be mixed: both number from 0. *)
let test_verifier_rejects_mixed_contexts () =
  let const_func name =
    Func.func_op (Ir.context ()) ~name ~args:[] (fun b _ ->
        ignore (Arith.constant_index b 0);
        Func.return_op b [])
  in
  expect_error "mixed contexts" ~op:"arith.constant" ~reason:"value %v0 defined twice"
    (Ir.module_op [ const_func "f"; const_func "g" ])

(* An operand minted past every id the module defines is an undefined
   value, not an index error. *)
let test_verifier_rejects_id_above_bound () =
  let far = Ir.context () in
  for _ = 1 to 999 do
    ignore (Ir.fresh_value far Ty.index)
  done;
  let stray = Ir.fresh_value far Ty.index in
  let f =
    Func.func_op (Ir.context ()) ~name:"stray" ~args:[ Ty.index ] (fun b args ->
        ignore (Arith.addi b (List.hd args) stray);
        Func.return_op b [])
  in
  expect_error "id above the bound" ~op:"arith.addi" ~reason:"use of undefined value %v999"
    (Ir.module_op [ f ])

(* Ids are numbered per module from 0, so the same module built twice,
   or in another domain, has the same ids. *)
let defined_vids m =
  let add acc vs = List.rev_append (List.map (fun (v : Ir.value) -> v.Ir.vid) vs) acc in
  let add_block acc (b : Ir.block) = add acc b.bargs in
  List.rev
    (Ir.fold
       (fun acc (o : Ir.op) ->
         List.fold_left (List.fold_left add_block) (add acc o.results) o.regions)
       [] m)

let test_context_ids_per_module () =
  let build () = Axi4mlir.build_matmul_module ~m:16 ~n:16 ~k:16 () in
  let m = build () in
  let vids = defined_vids m in
  Alcotest.(check (list int)) "dense from 0" (List.init (List.length vids) Fun.id)
    (List.sort compare vids);
  Alcotest.(check int) "vid_bound" (List.length vids) (Ir.vid_bound m);
  Alcotest.(check (list int)) "second build" vids (defined_vids (build ()));
  Alcotest.(check (list int)) "built in another domain" vids
    (Domain.join (Domain.spawn (fun () -> defined_vids (build ()))))

(* Verification and op counting run between every pair of passes; on a
   valid module they allocate next to nothing. Measured on a parsed
   golden module, after one warm-up call. *)
let golden_module =
  lazy
    (Parser_ir.parse_op
       (In_channel.with_open_bin "golden/matmul_v3_16_cs.mlir" In_channel.input_all))

let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. 100.0

let test_verifier_allocation () =
  let m = Lazy.force golden_module in
  Alcotest.(check bool) "golden module verifies" true (Verifier.verify_structured m = Ok ());
  let words = words_per_call (fun () -> Verifier.verify_structured m) in
  Alcotest.(check bool)
    (Printf.sprintf "verify_structured: %.0f words per call (at most 300)" words)
    true (words <= 300.0)

let test_count_ops_allocation () =
  let m = Lazy.force golden_module in
  let words = words_per_call (fun () -> Ir.count_ops (fun _ -> true) m) in
  Alcotest.(check bool)
    (Printf.sprintf "count_ops: %.0f words per call (at most 16)" words)
    true (words <= 16.0)

let test_dialect_verifiers () =
  (* a func without terminating return *)
  let ctx = Ir.context () in
  let v = Ir.fresh_value ctx Ty.index in
  let c = Ir.op "arith.constant" ~results:[ v ] ~attrs:[ ("value", Attribute.Int 0) ] in
  let f =
    Ir.op "func.func"
      ~attrs:
        [
          ("sym_name", Attribute.Str "noret");
          ("function_type", Attribute.Type_attr (Ty.Func ([], [])));
        ]
      ~regions:[ [ Ir.block [ c ] ] ]
  in
  (match Verifier.verify (Ir.module_op [ f ]) with
  | Error msg ->
    Alcotest.(check bool) "mentions return" true
      (String.length msg > 0)
  | Ok () -> Alcotest.fail "missing return accepted");
  (* arith.constant without value attribute *)
  let bad_const = Ir.op "arith.constant" ~results:[ Ir.fresh_value ctx Ty.index ] in
  let ret = Ir.op "func.return" in
  let g =
    Ir.op "func.func"
      ~attrs:
        [
          ("sym_name", Attribute.Str "badconst");
          ("function_type", Attribute.Type_attr (Ty.Func ([], [])));
        ]
      ~regions:[ [ Ir.block [ bad_const; ret ] ] ]
  in
  match Verifier.verify (Ir.module_op [ g ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "constant without value accepted"

let test_linalg_construction () =
  let b = Builder.create (Ir.context ()) in
  let a = Memref_d.alloc b (Ty.memref [ 8; 4 ] Ty.F32) in
  let bv = Memref_d.alloc b (Ty.memref [ 4; 8 ] Ty.F32) in
  let c = Memref_d.alloc b (Ty.memref [ 8; 8 ] Ty.F32) in
  let g = Linalg.matmul b ~a ~b:bv ~c in
  Alcotest.(check (list int)) "loop ranges" [ 8; 8; 4 ] (Linalg.loop_ranges g);
  Alcotest.(check int) "inputs" 2 (List.length (Linalg.inputs g));
  Alcotest.(check int) "outputs" 1 (List.length (Linalg.outputs g));
  Alcotest.(check (option string)) "kind" (Some "matmul") (Linalg.op_kind g);
  Alcotest.(check (list string)) "iterators" [ "parallel"; "parallel"; "reduction" ]
    (Linalg.iterator_types g)

let test_conv_construction () =
  let b = Builder.create (Ir.context ()) in
  let i = Memref_d.alloc b (Ty.memref [ 1; 3; 6; 6 ] Ty.F32) in
  let w = Memref_d.alloc b (Ty.memref [ 2; 3; 3; 3 ] Ty.F32) in
  let o = Memref_d.alloc b (Ty.memref [ 1; 2; 4; 4 ] Ty.F32) in
  let g = Linalg.conv_2d_nchw_fchw b ~input:i ~filter:w ~output:o in
  Alcotest.(check (list int)) "conv ranges" [ 1; 2; 4; 4; 3; 3; 3 ] (Linalg.loop_ranges g)

let test_accel_constructors () =
  let b = Builder.create (Ir.context ()) in
  Accel.dma_init b ~dma_id:0 ~input_address:0x42 ~input_buffer_size:0xFF00
    ~output_address:0xFF42 ~output_buffer_size:0xFF00;
  let off0 = Arith.constant_i32 b 0 in
  let lit = Arith.constant_i32 b 0x22 in
  let off1 = Accel.send_literal b ~literal:lit ~offset:off0 in
  let tile = Memref_d.alloc b (Ty.memref [ 4; 4 ] Ty.F32) in
  let off2 = Accel.send b ~src:tile ~offset:off1 in
  let _off3 = Accel.recv b ~mode:Accel.Accumulate ~dst:tile ~offset:off2 in
  let ops = Builder.finish b in
  let send_op = List.find (fun (o : Ir.op) -> o.Ir.name = "accel.send") ops in
  Alcotest.(check bool) "send flushes by default" true (Accel.is_flush send_op);
  let lit_op = List.find (fun (o : Ir.op) -> o.Ir.name = "accel.sendLiteral") ops in
  Alcotest.(check bool) "literal stages" false (Accel.is_flush lit_op);
  let recv_op = List.find (fun (o : Ir.op) -> o.Ir.name = "accel.recv") ops in
  Alcotest.(check bool) "recv mode" true (Accel.recv_mode_of recv_op = Accel.Accumulate)

let test_send_dim_extent () =
  let b = Builder.create (Ir.context ()) in
  let tile = Memref_d.alloc b (Ty.memref [ 4; 16 ] Ty.F32) in
  let off = Arith.constant_i32 b 0 in
  let _ = Accel.send_dim b ~src:tile ~dim:1 ~offset:off in
  let _ = Accel.send_dim ~static_extent:99 b ~src:tile ~dim:1 ~offset:off in
  let ops = Builder.finish b in
  let dims = List.filter (fun (o : Ir.op) -> o.Ir.name = "accel.sendDim") ops in
  Alcotest.(check (list int)) "extents" [ 16; 99 ] (List.map Accel.send_dim_extent dims)

let test_structural_equality () =
  let a = Ir.module_op [ build_simple_func () ] in
  let b = Ir.module_op [ build_simple_func () ] in
  Alcotest.(check bool) "fresh builds are structurally equal" true (Ir_compare.equal_op a b);
  Alcotest.(check bool) "reflexive" true (Ir_compare.equal_op a a);
  (* a different op name breaks equality *)
  let mutated =
    Ir.map_nested
      (fun o -> if o.Ir.name = "arith.addi" then { o with Ir.name = "arith.muli" } else o)
      a
  in
  (match Ir_compare.diff_op a mutated with
  | Some msg -> Alcotest.(check bool) "diff names the op" true (String.length msg > 0)
  | None -> Alcotest.fail "mutation not detected");
  (* rewiring an operand (addi (x, y) -> addi (x, x)) breaks the bijection *)
  let swap_operands =
    Ir.map_nested
      (fun o ->
        if o.Ir.name = "arith.addi" then
          match o.Ir.operands with
          | [ x; _y ] -> { o with Ir.operands = [ x; x ] }
          | _ -> o
        else o)
      a
  in
  Alcotest.(check bool) "operand rewiring detected" false (Ir_compare.equal_op a swap_operands)

let tests =
  [
    Alcotest.test_case "structural equality" `Quick test_structural_equality;
    Alcotest.test_case "builder emission order" `Quick test_builder_order;
    Alcotest.test_case "builder nesting" `Quick test_builder_nest;
    Alcotest.test_case "attributes" `Quick test_attrs;
    Alcotest.test_case "walk / map_nested / count" `Quick test_walk_and_find;
    Alcotest.test_case "module helpers" `Quick test_module_helpers;
    Alcotest.test_case "verifier accepts valid IR" `Quick test_verifier_accepts_valid;
    Alcotest.test_case "verifier rejects undefined use" `Quick test_verifier_rejects_undefined_use;
    Alcotest.test_case "verifier rejects double definition" `Quick test_verifier_rejects_double_def;
    Alcotest.test_case "verifier rejects a loop-body value used after the loop" `Quick
      test_verifier_rejects_loop_escape;
    Alcotest.test_case "verifier rejects a value used in another function" `Quick
      test_verifier_rejects_cross_function_use;
    Alcotest.test_case "verifier rejects a value defined in two sibling blocks" `Quick
      test_verifier_rejects_sibling_redefinition;
    Alcotest.test_case "verifier rejects values of two contexts" `Quick
      test_verifier_rejects_mixed_contexts;
    Alcotest.test_case "verifier rejects an id above the module's bound" `Quick
      test_verifier_rejects_id_above_bound;
    Alcotest.test_case "value ids numbered per module from 0" `Quick
      test_context_ids_per_module;
    Alcotest.test_case "verifier allocates next to nothing" `Quick test_verifier_allocation;
    Alcotest.test_case "count_ops allocates nothing" `Quick test_count_ops_allocation;
    Alcotest.test_case "dialect verifiers" `Quick test_dialect_verifiers;
    Alcotest.test_case "linalg matmul construction" `Quick test_linalg_construction;
    Alcotest.test_case "linalg conv construction" `Quick test_conv_construction;
    Alcotest.test_case "accel op constructors" `Quick test_accel_constructors;
    Alcotest.test_case "sendDim extents" `Quick test_send_dim_extent;
  ]
