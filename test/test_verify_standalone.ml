(* Verification answers from the module alone. This runs in a process
   of its own that calls nothing before it verifies, so a check that
   only an earlier set-up step (a registration, say) would switch on
   shows up here as a module that passes. *)

let hostile =
  Parser_ir.parse_op (In_channel.with_open_bin "cli/hostile_constant.mlir" In_channel.input_all)

let constant_error = "op arith.constant: constant requires an int, float or bool value attribute"

let test_verify () =
  Alcotest.(check (result unit string))
    "the per-op check of arith.constant runs" (Error constant_error) (Verifier.verify hostile)

let test_pipeline () =
  match Pass.run_pipeline [] hostile with
  | _ -> Alcotest.fail "an empty pipeline accepted an invalid input module"
  | exception Pass.Pass_failure { pass; failing_op; message } ->
    Alcotest.(check string) "pass" Pass.input pass;
    Alcotest.(check string) "failing op" "arith.constant" failing_op;
    Alcotest.(check string) "message" "constant requires an int, float or bool value attribute"
      message

(* Each op name the dialects check, as a bare op (no operands, results,
   attributes or regions), with the error its check gives; a name no
   dialect checks passes. *)
let bare_op_errors =
  [
    ("func.func", Some "missing sym_name or function_type attribute");
    ("func.call", Some "missing or non-string callee attribute");
    ("arith.constant", Some "constant must have exactly one result");
    ("arith.addi", Some "binary op requires two operands and one result");
    ("arith.subi", Some "binary op requires two operands and one result");
    ("arith.muli", Some "binary op requires two operands and one result");
    ("arith.addf", Some "binary op requires two operands and one result");
    ("arith.mulf", Some "binary op requires two operands and one result");
    ("memref.alloc", Some "alloc must have exactly one result");
    ("memref.subview", Some "expected a source memref, offsets, and one result");
    ("memref.load", Some "expected a source memref, indices, and one result");
    ("memref.store", Some "expected a value, a destination memref, and indices");
    ("scf.for", Some "scf.for requires exactly lb, ub and step operands");
    ("linalg.generic", Some "missing indexing_maps, iterator_types or ins attribute");
    ("accel.dma_init", Some "dma_init requires five i32 operands");
    ("accel.send", Some "expected (payload, offset) operands and one offset result");
    ("accel.sendDim", Some "expected (payload, offset) operands and one offset result");
    ("accel.recv", Some "expected (payload, offset) operands and one offset result");
    ("accel.sendLiteral", Some "expected (payload, offset) operands and one offset result");
    ("accel.sendIdx", Some "expected (payload, offset) operands and one offset result");
    ("accel.start_send", Some "start_send takes no operands and returns one !accel.token");
    ( "accel.start_recv",
      Some "start_recv requires one memref operand and one !accel.token result" );
    ("accel.wait", Some "wait consumes exactly one !accel.token and returns nothing");
    ("accel.dma_free", None);
    ("func.return", None);
    ("scf.yield", None);
    ("test.unknown", None);
  ]

let test_dispatch () =
  List.iter
    (fun (name, expected) ->
      let got =
        match Verifier.verify_structured (Ir.module_op [ Ir.op name ]) with
        | Ok () -> None
        | Error { Verifier.failing_op; reason } ->
          Alcotest.(check string) (name ^ ": failing op") name failing_op;
          Some reason
      in
      Alcotest.(check (option string)) name expected got)
    bare_op_errors

let () =
  Alcotest.run "verify-standalone"
    [
      ( "verifier",
        [
          Alcotest.test_case "Verifier.verify needs no set-up" `Quick test_verify;
          Alcotest.test_case "Pass.run_pipeline checks its input" `Quick test_pipeline;
          Alcotest.test_case "every checked op name reaches its check" `Quick test_dispatch;
        ] );
    ]
