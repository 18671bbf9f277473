(* Tests for lib/support: Util, Tabulate and Scanner. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_round_up () =
  check "exact" 16 (Util.round_up 16 ~multiple:8);
  check "up" 24 (Util.round_up 17 ~multiple:8);
  check "zero" 0 (Util.round_up 0 ~multiple:8);
  check "one" 5 (Util.round_up 3 ~multiple:5)

let test_ceil_div () =
  check "exact" 4 (Util.ceil_div 16 4);
  check "up" 5 (Util.ceil_div 17 4);
  check "zero" 0 (Util.ceil_div 0 4)

let test_pow2 () =
  checkb "1" true (Util.is_pow2 1);
  checkb "64" true (Util.is_pow2 64);
  checkb "0" false (Util.is_pow2 0);
  checkb "neg" false (Util.is_pow2 (-4));
  checkb "12" false (Util.is_pow2 12);
  check "log2 1" 0 (Util.log2 1);
  check "log2 1024" 10 (Util.log2 1024);
  Alcotest.check_raises "log2 of non-pow2" (Invalid_argument "Util.log2: not a power of two")
    (fun () -> ignore (Util.log2 12))

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Util.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Util.divisors 1);
  Alcotest.(check (list int)) "prime" [ 1; 13 ] (Util.divisors 13)

let test_list_helpers () =
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Util.range 3);
  check "product" 24 (Util.product [ 2; 3; 4 ]);
  check "product empty" 1 (Util.product []);
  Alcotest.(check (option int)) "index hit" (Some 1) (Util.list_index (fun x -> x = 5) [ 3; 5; 7 ]);
  Alcotest.(check (option int)) "index miss" None (Util.list_index (fun x -> x = 9) [ 3; 5 ]);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Util.list_take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take long" [ 1 ] (Util.list_take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Util.list_drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Util.list_drop 5 [ 1 ])

let test_permutations () =
  check "3!" 6 (List.length (Util.permutations [ 1; 2; 3 ]));
  check "unique" 6 (List.length (List.sort_uniq compare (Util.permutations [ 1; 2; 3 ])));
  Alcotest.(check (list (list int))) "empty" [ [] ] (Util.permutations [])

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Util.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Util.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "fmax" 4.0 (Util.fmax_list [ 1.0; 4.0; 2.0 ]);
  checkb "mean empty is nan" true (Float.is_nan (Util.mean []))

let test_tabulate () =
  let t = Tabulate.create [ ("name", Tabulate.Left); ("value", Tabulate.Right) ] in
  Tabulate.add_row t [ "alpha"; "1" ];
  Tabulate.add_rule t;
  Tabulate.add_row t [ "b"; "22" ];
  let rendered = Tabulate.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* all lines share the same width *)
  let widths = List.map String.length lines in
  Alcotest.(check (list int)) "aligned" (List.map (fun _ -> List.hd widths) widths) widths;
  Alcotest.check_raises "row arity" (Invalid_argument "Tabulate.add_row: row width does not match headers")
    (fun () -> Tabulate.add_row t [ "only-one" ])

let test_formats () =
  Alcotest.(check string) "ms" "1.235" (Tabulate.fmt_ms 1.2349);
  Alcotest.(check string) "x" "1.23x" (Tabulate.fmt_x 1.234);
  Alcotest.(check string) "pct" "56.0%" (Tabulate.fmt_pct 0.56);
  let buf = Buffer.create 64 in
  Util.add_list buf Util.add_int [ 0; 7; 10; -45; max_int; min_int ];
  Alcotest.(check string) "add_int as string_of_int"
    (String.concat ", " (List.map string_of_int [ 0; 7; 10; -45; max_int; min_int ]))
    (Buffer.contents buf)

let scanner_error f =
  match f () with
  | _ -> Alcotest.fail "expected Scanner.Error"
  | exception Scanner.Error msg -> msg

let test_scanner () =
  let sc = Scanner.create ~comments:true "  // note\n foo.bar, -0x1F 42 \000" in
  Alcotest.(check string) "id after comment" "foo.bar"
    (Scanner.scan_id sc (fun c -> c = '.' || (c >= 'a' && c <= 'z')));
  checkb "accept ','" true (Scanner.accept sc ',');
  check "hex with sign" (-31) (Scanner.scan_int sc);
  checkb "accept_string" true (Scanner.accept_string sc "42");
  Scanner.skip_ws sc;
  (* a NUL byte is content, not the end of input *)
  checkb "NUL is not the end" false (Scanner.at_end sc);
  Alcotest.(check char) "peek NUL" '\000' (Scanner.peek sc);
  Scanner.advance sc;
  checkb "end by position" true (Scanner.at_end sc);
  (* comments are a property of the grammar *)
  let plain = Scanner.create ~comments:false "// x" in
  Scanner.skip_ws plain;
  Alcotest.(check char) "no comments in plain text" '/' (Scanner.peek plain);
  let list = Scanner.create ~comments:false "1, 2 ,3]" in
  Alcotest.(check (list int)) "sep_list" [ 1; 2; 3 ]
    (Scanner.sep_list list ~sep:',' ~close:']' Scanner.scan_int);
  Alcotest.(check string) "error position"
    "line 2, column 3: integer literal 99999999999999999999 does not fit an int"
    (scanner_error (fun () ->
         Scanner.scan_int (Scanner.create ~comments:false "\n  99999999999999999999")));
  Alcotest.(check string) "trailing separator"
    "line 1, column 4: expected identifier"
    (scanner_error (fun () ->
         Scanner.sep_list (Scanner.create ~comments:false "a, )") ~sep:',' ~close:')' (fun sc ->
             Scanner.scan_id sc (fun c -> c = 'a'))))

(* The in-place integer reader agrees with scan_int, which builds the
   literal's text and asks int_of_string, on every edge of the range. *)
let test_read_int () =
  let via f text =
    match f (Scanner.create ~comments:false text) with
    | v -> Ok v
    | exception Scanner.Error msg -> Error msg
  in
  List.iter
    (fun text ->
      Alcotest.(check (result int string)) text (via Scanner.scan_int text)
        (via Scanner.read_int text))
    [
      "0"; "-0"; "42"; "007"; "-31"; string_of_int max_int; string_of_int min_int;
      "4611686018427387904"; "-4611686018427387905"; "99999999999999999999"; "0x1F";
      "-0x1F"; "0X7fffffffffffffff"; "0x7FFFFFFFFFFFFFFF"; "0x8000000000000000";
      "0x4000000000000000"; "-0x4000000000000000"; "0x0000000000000000001"; "0x"; "-"; "x";
    ]

let prop_read_int =
  QCheck.Test.make ~name:"read_int reads what scan_int reads" ~count:500
    QCheck.(pair int bool)
    (fun (n, hex) ->
      let text = if hex then Printf.sprintf "0x%x" n else string_of_int n in
      Scanner.read_int (Scanner.create ~comments:false text)
      = Scanner.scan_int (Scanner.create ~comments:false text))

let prop_span_hash =
  QCheck.Test.make ~name:"span hash is Hashtbl.hash of the span's text" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (src, a, b) ->
      let n = String.length src in
      let start = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - start = 0 then 0 else b mod (n - start + 1) in
      Span_table.hash src start len = Hashtbl.hash (String.sub src start len))

let test_span_table () =
  (* 2,000 names "%0" .. "%1999" one after another *)
  let names = List.init 2000 (fun i -> "%" ^ string_of_int i) in
  let src = String.concat "" names in
  let _, spans =
    List.fold_left
      (fun (start, acc) name -> (start + String.length name, (start, String.length name) :: acc))
      (0, []) names
  in
  let spans = List.rev spans in
  let t = Span_table.create src in
  Alcotest.(check int) "absent from an empty table" (-1) (Span_table.find t 0 2);
  List.iteri
    (fun e (start, len) ->
      Alcotest.(check int) "absent before it is added" (-1) (Span_table.find t start len);
      Alcotest.(check int) "add returns the data" e (Span_table.add t start len e))
    spans;
  List.iteri
    (fun e (start, len) ->
      Alcotest.(check int) "found after every resize" e
        (Span_table.get t (Span_table.find t start len)))
    spans;
  (* a key is its bytes, not its position *)
  let n = String.length src in
  let t2 = Span_table.create (src ^ "%1999%20000") in
  ignore (Span_table.add t2 (n - 5) 5 "first");
  Alcotest.(check string) "same bytes elsewhere" "first"
    (Span_table.get t2 (Span_table.find t2 n 5));
  Alcotest.(check int) "a prefix is another key" (-1) (Span_table.find t2 n 4)

let tests =
  [
    Alcotest.test_case "round_up" `Quick test_round_up;
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "pow2/log2" `Quick test_pow2;
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "list helpers" `Quick test_list_helpers;
    Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "statistics" `Quick test_stats;
    Alcotest.test_case "tabulate rendering" `Quick test_tabulate;
    Alcotest.test_case "number formats" `Quick test_formats;
    Alcotest.test_case "scanner: tokens, ends and positions" `Quick test_scanner;
    Alcotest.test_case "scanner: read_int edges" `Quick test_read_int;
    QCheck_alcotest.to_alcotest prop_read_int;
    QCheck_alcotest.to_alcotest prop_span_hash;
    Alcotest.test_case "span table: add, find, resize" `Quick test_span_table;
  ]
