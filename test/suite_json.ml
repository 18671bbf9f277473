(* Tests for the JSON implementation. *)

let parse = Json.of_string

let test_scalars () =
  Alcotest.(check bool) "true" true (Json.to_bool (parse "true"));
  Alcotest.(check bool) "false" false (Json.to_bool (parse "false"));
  Alcotest.(check int) "int" 42 (Json.to_int (parse "42"));
  Alcotest.(check int) "negative" (-7) (Json.to_int (parse "-7"));
  Alcotest.(check (float 1e-12)) "float" 2.5 (Json.to_float (parse "2.5"));
  Alcotest.(check (float 1e-6)) "exponent" 1500.0 (Json.to_float (parse "1.5e3"));
  (match parse "null" with Json.Null -> () | _ -> Alcotest.fail "null");
  Alcotest.(check string) "string" "hi" (Json.to_str (parse "\"hi\""))

let test_escapes () =
  Alcotest.(check string) "newline" "a\nb" (Json.to_str (parse {|"a\nb"|}));
  Alcotest.(check string) "quote" "say \"hi\"" (Json.to_str (parse {|"say \"hi\""|}));
  Alcotest.(check string) "backslash" "a\\b" (Json.to_str (parse {|"a\\b"|}));
  Alcotest.(check string) "unicode" "A" (Json.to_str (parse {|"A"|}));
  (* surrogate pair for U+1F600 encodes to 4 UTF-8 bytes *)
  Alcotest.(check int) "surrogate pair" 4
    (String.length (Json.to_str (parse {|"😀"|})))

let test_structures () =
  let j = parse {| { "a": [1, 2, 3], "b": { "c": true }, "empty": [], "eo": {} } |} in
  Alcotest.(check int) "array elems" 3 (List.length (Json.to_list (Json.member "a" j)));
  Alcotest.(check bool) "nested" true (Json.to_bool (Json.member "c" (Json.member "b" j)));
  Alcotest.(check int) "empty array" 0 (List.length (Json.to_list (Json.member "empty" j)));
  Alcotest.(check int) "empty object" 0 (List.length (Json.to_obj (Json.member "eo" j)));
  (match Json.member "missing" j with Json.Null -> () | _ -> Alcotest.fail "missing -> Null");
  Alcotest.(check bool) "member_opt none" true (Json.member_opt "missing" j = None)

let test_roundtrip () =
  let doc =
    Json.Obj
      [
        ("name", Json.String "v3_16");
        ("dims", Json.List [ Json.Int 16; Json.Int 16; Json.Int 16 ]);
        ("freq", Json.Float 200.0);
        ("flex", Json.Bool false);
        ("nothing", Json.Null);
        ("nested", Json.Obj [ ("x", Json.String "a\"b") ]);
      ]
  in
  Alcotest.(check bool) "compact roundtrip" true (parse (Json.to_string doc) = doc);
  Alcotest.(check bool) "pretty roundtrip" true (parse (Json.to_string ~indent:2 doc) = doc)

let expect_parse_error src =
  match parse src with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "expected parse error for %s" src)

let test_errors () =
  expect_parse_error "{";
  expect_parse_error "[1, 2";
  expect_parse_error "tru";
  expect_parse_error "\"unterminated";
  expect_parse_error "{\"a\" 1}";
  expect_parse_error "1 2";
  expect_parse_error "{\"a\": 1,}";
  (* error message carries position *)
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (try
     ignore (parse "[1, \n  bad]");
     Alcotest.fail "expected parse error"
   with Json.Parse_error msg ->
     Alcotest.(check bool) "mentions line 2" true (contains msg "line 2"))

let test_type_errors () =
  let j = parse "{\"a\": 1}" in
  Alcotest.check_raises "to_bool of int" (Json.Type_error "expected bool, found int")
    (fun () -> ignore (Json.to_bool (Json.member "a" j)));
  Alcotest.check_raises "member of array" (Json.Type_error "expected object, found array")
    (fun () -> ignore (Json.member "x" (parse "[]")))

let test_large_int_fallback () =
  (* Integers beyond native range fall back to float rather than failing. *)
  match parse "123456789012345678901234567890" with
  | Json.Float _ -> ()
  | _ -> Alcotest.fail "expected float fallback"

(* ------------------------------------------------------------------ *)
(* Decoders                                                            *)
(* ------------------------------------------------------------------ *)

let check_result name expected got =
  let show = function Ok _ -> "Ok _" | Error msg -> "Error " ^ msg in
  Alcotest.(check string) name (show expected) (show got)

let test_decoders () =
  let o = parse {|{"a": 1, "xs": [1, "two"], "n": null, "m": {"k": "v"}}|} in
  check_result "field" (Ok 1) (Json.field "a" Json.int "o" o);
  check_result "missing field" (Error "o.b: missing field") (Json.field "b" Json.int "o" o);
  check_result "null is missing" (Error "o.n: missing field") (Json.field "n" Json.int "o" o);
  check_result "non-object" (Error "o: expected a JSON object")
    (Json.field "a" Json.int "o" (Json.List []));
  check_result "element path" (Error "o.xs[1]: expected int, found string")
    (Json.field "xs" (Json.list Json.int) "o" o);
  check_result "member path" (Error "o.m.k: expected int, found string")
    (Json.field "m" (Json.assoc Json.int) "o" o);
  Alcotest.(check bool) "optional: absent and null" true
    (Json.field_opt "b" Json.int "o" o = Ok None
    && Json.field_opt "n" Json.int "o" o = Ok None);
  let dup = parse {|{"size": 16, "a": 1, "size": 4}|} in
  check_result "duplicate field" (Error "o.size: duplicate field")
    (Json.field "size" Json.int "o" dup);
  check_result "optional duplicate field" (Error "o.size: duplicate field")
    (Json.field_opt "size" Json.int "o" dup);
  check_result "other fields of a duplicating object" (Ok 1) (Json.field "a" Json.int "o" dup);
  check_result "lifted Failure" (Error "p: boom") (Json.lift (fun _ -> failwith "boom") "p" o);
  check_result "schema" (Error {|d.schema: expected "x-v1", got "x-v0"|})
    (Json.schema "x-v1" "d" (Json.Obj [ ("schema", Json.String "x-v0") ]))

(* An object decoded as a whole rejects a repeated key, as a single
   field does: no member silently shadows another. *)
let test_assoc_duplicate () =
  let flows = parse {|{"Ns": 1, "Cs": 2, "As": 3, "Cs": 4}|} in
  check_result "duplicate member" (Error "o.Cs: duplicate field")
    (Json.assoc Json.int "o" flows);
  Alcotest.(check (result (list (pair string int)) string))
    "distinct members" (Ok [ ("Ns", 1); ("Cs", 2) ])
    (Json.assoc Json.int "o" (parse {|{"Ns": 1, "Cs": 2}|}))

(* Every reader answers each kind of malformed input with an [Error]
   rooted at its own path. *)

let set key v = function
  | Json.Obj kvs -> Json.Obj ((key, v) :: List.remove_assoc key kvs)
  | j -> j

let remove key = function Json.Obj kvs -> Json.Obj (List.remove_assoc key kvs) | j -> j
let accepts decode json = Result.map ignore (decode json)

let tune_doc =
  {|{"schema": "axi4mlir-tune-v1", "entries": [{"key": "k", "label": "l",
     "workload": "w", "candidate": {}, "outcome": {"cycles": 1.0}}]}|}

let bench_doc =
  {
    Benchdiff.doc_experiment = "t";
    doc_quick = true;
    doc_points =
      [
        {
          Benchdiff.pt_id = "t/001";
          pt_kind = "matmul";
          pt_dims = [ 4 ];
          pt_config = "c";
          pt_metrics = [ ("cycles", 1.0) ];
        };
      ];
  }

(* name, decoder, valid document, schema tag, (missing field, error),
   (mistyped field, value, error) *)
let readers () =
  let accel = Accel_config.to_json (Presets.matmul ~version:Accel_matmul.V3 ~size:4 ()) in
  let cpu = Host_config.to_json Host_config.pynq_z2 in
  [
    ( "accel_config",
      accepts Accel_config.of_json_result,
      accel,
      None,
      Some ("dma", "accel_config.dma: missing field"),
      ("dims", Json.String "4x4", "accel_config.dims: expected array, found string") );
    ( "cpu",
      accepts Host_config.of_json_result,
      cpu,
      None,
      Some ("frequency_mhz", "cpu.frequency_mhz: missing field"),
      ( "caches",
        parse {|[{"size_kb": "32", "assoc": 4}]|},
        "cpu.caches[0].size_kb: expected int, found string" ) );
    ( "config",
      (fun j -> accepts Config_parser.parse_string_result (Json.to_string j)),
      Json.Obj [ ("cpu", cpu); ("accelerator", accel) ],
      None,
      Some ("cpu", {|config: missing "cpu" section|}),
      ("accelerator", Json.Int 3, "accel_config: expected a JSON object") );
    ( "platform",
      accepts Platform_ir.of_json_result,
      Platform_ir.to_json (List.assoc "hetero-v3v4" Platform_ir.presets),
      Some Platform_ir.schema,
      Some ("instances", "platform.instances: missing field"),
      ("instances", parse "[1]", "platform.instances[0]: expected a JSON object") );
    ( "case",
      accepts Fuzz_case.of_json_result,
      Fuzz_case.to_json (Fuzz_gen.case_at ~seed:1 ~index:0 ()),
      None,
      Some ("flow", "case.flow: missing field"),
      ("cpu_tiling", Json.Int 1, "case.cpu_tiling: expected bool, found int") );
    ( "bench",
      accepts Benchdiff.of_json_result,
      Benchdiff.to_json bench_doc,
      Some "axi4mlir-bench-v1",
      Some ("experiment", "bench.experiment: missing field"),
      ("points", parse {|[{"id": 3}]|}, "bench.points[0].id: expected string, found int") );
    ( "tune",
      accepts Tune_cache.of_json_result,
      parse tune_doc,
      Some Tune_cache.schema,
      Some ("entries", "tune.entries: missing field"),
      ("entries", Json.Int 3, "tune.entries: expected array, found int") );
    ( "perf_counters",
      accepts Perf_counters.of_json_result,
      Perf_counters.to_json (Perf_counters.create ()),
      None,
      None,
      ("cycles", Json.String "1", "perf_counters.cycles: expected float, found string") );
  ]

let test_reader_errors () =
  List.iter
    (fun (name, decode, valid, schema, missing, (key, bad, wrong_type)) ->
      check_result (name ^ ": valid") (Ok ()) (decode valid);
      check_result (name ^ ": non-object") (Error (name ^ ": expected a JSON object"))
        (decode (Json.List []));
      Option.iter
        (fun tag ->
          check_result (name ^ ": wrong schema")
            (Error (Printf.sprintf "%s.schema: expected %S, got \"other-v9\"" name tag))
            (decode (set "schema" (Json.String "other-v9") valid)))
        schema;
      Option.iter
        (fun (key, msg) ->
          check_result (name ^ ": missing field") (Error msg) (decode (remove key valid)))
        missing;
      check_result (name ^ ": wrong type") (Error wrong_type) (decode (set key bad valid)))
    (readers ())

(* Truncations and single-byte flips of every committed config and
   artifact kind: each reader returns [Ok] or [Error], never raises. *)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let corpus () =
  let configs =
    List.map
      (fun f -> read_text (Filename.concat "../examples/configs" f))
      [ "v3_16_cs.json"; "v4_16.json"; "conv2d.json" ]
  in
  let tune =
    let cache = Tune_cache.create () in
    let workload = Tune_workload.Matmul { m = 16; n = 16; k = 16 } in
    let candidate = List.hd (Tune_space.enumerate Tune_space.quick workload) in
    let config = Result.get_ok (Tune_space.config_of_candidate candidate) in
    Tune_cache.add cache ~key:(Tune_cache.key workload config candidate) ~label:"t" ~workload
      ~candidate (Tune_cache.Cycles 1.0);
    let path = Filename.temp_file "tune_cache" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Tune_cache.save cache path;
        read_text path)
  in
  Array.of_list
    (configs
    @ [
        read_text "golden/platform_hetero.json";
        read_text "../bench/baselines/BENCH_exp_platform.json";
        tune;
        Json.to_string (Fuzz_case.to_json (Fuzz_gen.case_at ~seed:1 ~index:0 ()));
      ])

let decode_all text =
  ignore (Config_parser.parse_string_result text);
  ignore (Fuzz_case.of_string_result text);
  match Json.of_string_result text with
  | Error _ -> ()
  | Ok json ->
    ignore (Accel_config.of_json_result json);
    ignore (Host_config.of_json_result json);
    ignore (Platform_ir.of_json_result json);
    ignore (Benchdiff.of_json_result json);
    ignore (Tune_cache.of_json_result json);
    ignore (Perf_counters.of_json_result json)

let prop_mutated_documents_never_raise =
  let docs = lazy (corpus ()) in
  QCheck.Test.make ~name:"mutated configs and artifacts never raise" ~count:2000
    QCheck.(quad small_nat (int_bound 1_000_000) (int_bound 255) bool)
    (fun (which, pos, byte, truncate) ->
      let docs = Lazy.force docs in
      let doc = docs.(which mod Array.length docs) in
      let pos = pos mod String.length doc in
      let text =
        if truncate then String.sub doc 0 pos
        else String.mapi (fun i c -> if i = pos then Char.chr byte else c) doc
      in
      match decode_all text with
      | () -> true
      | exception e -> QCheck.Test.fail_reportf "%s on %S" (Printexc.to_string e) text)

let tests =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "string escapes" `Quick test_escapes;
    Alcotest.test_case "structures" `Quick test_structures;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "large integer fallback" `Quick test_large_int_fallback;
    Alcotest.test_case "decoders: paths and errors" `Quick test_decoders;
    Alcotest.test_case "decoders: assoc rejects a duplicated key" `Quick test_assoc_duplicate;
    Alcotest.test_case "decoders: every reader's errors" `Quick test_reader_errors;
    QCheck_alcotest.to_alcotest prop_mutated_documents_never_raise;
  ]
