(* Tests for the SoC substrate: memory, counters, accelerator devices,
   the DMA engine, and host-event costing. *)

let test_sim_memory () =
  let mem = Sim_memory.create () in
  let a = Sim_memory.alloc mem ~label:"a" 10 in
  let b = Sim_memory.alloc mem ~label:"b" 4 in
  Alcotest.(check bool) "aligned" true (a.Sim_memory.base mod 64 = 0);
  Alcotest.(check bool) "disjoint" true (b.Sim_memory.base >= a.Sim_memory.base + 40);
  Sim_memory.set a 3 1.5;
  Alcotest.(check (float 0.0)) "set/get" 1.5 (Sim_memory.get a 3);
  Alcotest.(check int) "addr" (a.Sim_memory.base + 12) (Sim_memory.addr_of a 3);
  Alcotest.(check bool) "footprint grows" true (Sim_memory.footprint_bytes mem > 0);
  Alcotest.check_raises "oob get" (Invalid_argument "Sim_memory.get: index 10 out of bounds for a")
    (fun () -> ignore (Sim_memory.get a 10))

let test_counters_arith () =
  let a = Perf_counters.create () in
  a.Perf_counters.cycles <- 100.0;
  a.Perf_counters.branches <- 10.0;
  let b = Perf_counters.copy a in
  b.Perf_counters.cycles <- 150.0;
  let d = Perf_counters.diff b a in
  Alcotest.(check (float 0.0)) "diff" 50.0 d.Perf_counters.cycles;
  Alcotest.(check (float 0.0)) "diff untouched field" 0.0 d.Perf_counters.branches;
  let s = Perf_counters.scale d 4.0 in
  Alcotest.(check (float 0.0)) "scale" 200.0 s.Perf_counters.cycles;
  Perf_counters.accumulate a s;
  Alcotest.(check (float 0.0)) "accumulate" 300.0 a.Perf_counters.cycles;
  Alcotest.(check (float 1e-9)) "task clock" (300.0 /. 650000.0)
    (Perf_counters.task_clock_ms a ~cpu_freq_mhz:650.0)

(* Drive a device directly with word streams. *)
(* One transaction; returns the accelerator cycles it triggered. *)
let consume (dev : Accel_device.t) words =
  let meter = { Accel_device.accel_cycles = 0.0 } in
  dev.Accel_device.consume (Axi_word.of_words words) meter;
  meter.Accel_device.accel_cycles
let tile_words data = Array.map (fun v -> Axi_word.Data v) data

let concat = Array.concat

let test_matmul_device_v3 () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V3 ~size:2 () in
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = [| 5.0; 6.0; 7.0; 8.0 |] in
  let expected = Gold.matmul ~m:2 ~n:2 ~k:2 a b in
  let cycles =
    consume dev
      (concat
         [
           [| Axi_word.Inst Isa.reset |];
           [| Axi_word.Inst Isa.mm_load_a |]; tile_words a;
           [| Axi_word.Inst Isa.mm_load_b |]; tile_words b;
           [| Axi_word.Inst Isa.mm_compute |];
           [| Axi_word.Inst Isa.mm_drain |];
         ])
  in
  Alcotest.(check bool) "compute took cycles" true (cycles > 0.0);
  Alcotest.(check int) "output queued" 4 (dev.Accel_device.available ());
  let out = dev.Accel_device.drain 4 in
  Alcotest.(check (float 1e-9)) "result" 0.0 (Gold.max_abs_diff expected out)

let test_matmul_device_accumulates () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V3 ~size:2 () in
  let a = [| 1.0; 0.0; 0.0; 1.0 |] in
  (* identity *)
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  ignore (consume dev [| Axi_word.Inst Isa.reset |]);
  ignore (consume dev (concat [ [| Axi_word.Inst Isa.mm_load_a |]; tile_words a ]));
  ignore (consume dev (concat [ [| Axi_word.Inst Isa.mm_load_b |]; tile_words b ]));
  ignore (consume dev [| Axi_word.Inst Isa.mm_compute |]);
  ignore (consume dev [| Axi_word.Inst Isa.mm_compute |]);
  ignore (consume dev [| Axi_word.Inst Isa.mm_drain |]);
  let out = dev.Accel_device.drain 4 in
  (* two computes accumulate: C = 2 * B *)
  Alcotest.(check (float 1e-9)) "accumulated" 0.0
    (Gold.max_abs_diff (Array.map (fun v -> 2.0 *. v) b) out);
  (* drain cleared the accumulator *)
  ignore (consume dev [| Axi_word.Inst Isa.mm_compute |]);
  ignore (consume dev [| Axi_word.Inst Isa.mm_drain |]);
  let out2 = dev.Accel_device.drain 4 in
  Alcotest.(check (float 1e-9)) "cleared after drain" 0.0 (Gold.max_abs_diff b out2)

let test_matmul_device_v1_fused () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V1 ~size:2 () in
  let a = [| 1.0; 2.0; 3.0; 4.0 |] and b = [| 1.0; 0.0; 0.0; 1.0 |] in
  ignore
    (consume dev
       (concat [ [| Axi_word.Inst Isa.mm_fused |]; tile_words a; tile_words b ]));
  let out = dev.Accel_device.drain 4 in
  Alcotest.(check (float 1e-9)) "fused result" 0.0 (Gold.max_abs_diff a out)

let test_matmul_device_version_gating () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V1 ~size:2 () in
  (match consume dev [| Axi_word.Inst Isa.mm_load_a |] with
  | exception Failure msg ->
    Alcotest.(check bool) "names the op" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "v1 accepted a split load");
  let v3 = Accel_matmul.create ~version:Accel_matmul.V3 ~size:2 () in
  (match consume v3 [| Axi_word.Inst Isa.mm_set_tm; Axi_word.Inst 4 |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "v3 accepted tile configuration")

let test_matmul_device_v4_flex () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V4 ~size:2 () in
  let m, n, k = (4, 2, 6) in
  let a = Array.init (m * k) float_of_int in
  let b = Array.init (k * n) (fun i -> float_of_int (i mod 5)) in
  let expected = Gold.matmul ~m ~n ~k a b in
  ignore
    (consume dev
       [|
         Axi_word.Inst Isa.reset;
         Axi_word.Inst Isa.mm_set_tm; Axi_word.Inst m;
         Axi_word.Inst Isa.mm_set_tn; Axi_word.Inst n;
         Axi_word.Inst Isa.mm_set_tk; Axi_word.Inst k;
       |]);
  ignore (consume dev (concat [ [| Axi_word.Inst Isa.mm_load_a |]; tile_words a ]));
  ignore (consume dev (concat [ [| Axi_word.Inst Isa.mm_load_b |]; tile_words b ]));
  ignore (consume dev [| Axi_word.Inst Isa.mm_compute; Axi_word.Inst Isa.mm_drain |]);
  let out = dev.Accel_device.drain (m * n) in
  Alcotest.(check (float 1e-9)) "flex result" 0.0 (Gold.max_abs_diff expected out);
  (* non-multiple-of-granularity dims are rejected *)
  match
    consume dev [| Axi_word.Inst Isa.mm_set_tm; Axi_word.Inst 3 |]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "odd tile accepted"

(* The MAC kernels loop m-k-n but must keep the dot-product form's
   bits: each output adds its products to its previous value in k
   order. Operands from [Gold.fill_deterministic] are multiples of
   2^-15, whose sums are exact in any order, so these are not: a
   reassociated sum would change low bits. *)
let dot_product_acc ~m ~n ~k a b c =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref c.((i * n) + j) in
      for l = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + l) *. b.((l * n) + j))
      done;
      c.((i * n) + j) <- !acc
    done
  done

let non_dyadic ~salt len = Array.init len (fun i -> sin (float_of_int ((7 * i) + salt)) /. 3.0)

let check_bits what expected actual =
  Alcotest.(check (array int64)) what
    (Array.map Int64.bits_of_float expected)
    (Array.map Int64.bits_of_float actual)

(* (size, tm, tn, tk): non-square tiles, and tk = 1 *)
let mac_shapes =
  [ (1, 1, 1, 1); (1, 3, 5, 7); (1, 5, 3, 1); (1, 16, 4, 1); (2, 4, 6, 2); (4, 8, 12, 16) ]

let test_gold_mac_order () =
  List.iter
    (fun (_, m, n, k) ->
      let a = non_dyadic ~salt:1 (m * k) and b = non_dyadic ~salt:2 (k * n) in
      let c = non_dyadic ~salt:3 (m * n) in
      let expected = Array.copy c in
      dot_product_acc ~m ~n ~k a b expected;
      Gold.matmul_acc ~m ~n ~k a b c;
      check_bits (Printf.sprintf "Gold.matmul_acc %dx%dx%d" m n k) expected c)
    mac_shapes

(* Two tiles of A against one B, so the second compute accumulates onto
   a non-dyadic C; the words go through a staged stream window, as the
   DMA engine delivers them. *)
let test_v4_mac_order () =
  List.iter
    (fun (size, tm, tn, tk) ->
      let a1 = non_dyadic ~salt:4 (tm * tk) and a2 = non_dyadic ~salt:5 (tm * tk) in
      let b = non_dyadic ~salt:6 (tk * tn) in
      let expected = Array.make (tm * tn) 0.0 in
      dot_product_acc ~m:tm ~n:tn ~k:tk a1 b expected;
      dot_product_acc ~m:tm ~n:tn ~k:tk a2 b expected;
      let stream = Axi_word.create_stream (13 + (2 * tm * tk) + (tk * tn)) in
      let pos = ref 0 in
      let inst v =
        Axi_word.set_inst stream !pos v;
        incr pos
      in
      let data src =
        Axi_word.gather_data stream !pos src 0 ~len:(Array.length src) ~count:1 ~stride:0;
        pos := !pos + Array.length src
      in
      List.iter inst
        [ Isa.reset; Isa.mm_set_tm; tm; Isa.mm_set_tn; tn; Isa.mm_set_tk; tk; Isa.mm_load_b ];
      data b;
      inst Isa.mm_load_a;
      data a1;
      inst Isa.mm_compute;
      inst Isa.mm_load_a;
      data a2;
      inst Isa.mm_compute;
      inst Isa.mm_drain;
      let dev = Accel_matmul.create ~version:Accel_matmul.V4 ~size () in
      dev.Accel_device.consume
        (Axi_word.window stream ~pos:0 ~len:!pos)
        { Accel_device.accel_cycles = 0.0 };
      check_bits
        (Printf.sprintf "v4_%d %dx%dx%d" size tm tn tk)
        expected
        (dev.Accel_device.drain (tm * tn)))
    mac_shapes

(* The kernel both MAC users share, against the naive triple loop over
   whole arrays that may run past the operands' prefixes: shapes 0-40
   (zero dims, n mod 4 <> 0), non-dyadic operands, a few slack
   elements that must stay untouched. *)
let prop_mac_kernel_bits =
  QCheck.Test.make ~name:"Mac.matmul_acc has the dot-product bits" ~count:200
    QCheck.(
      quad (int_range 0 40) (int_range 0 40) (int_range 0 40) (pair (int_range 0 3) small_nat))
    (fun (m, n, k, (slack, salt)) ->
      let a = non_dyadic ~salt ((m * k) + slack)
      and b = non_dyadic ~salt:(salt + 1) ((k * n) + slack)
      and c = non_dyadic ~salt:(salt + 2) ((m * n) + slack) in
      let expected = Array.copy c in
      dot_product_acc ~m ~n ~k a b expected;
      Mac.matmul_acc ~m ~n ~k a b c;
      Array.map Int64.bits_of_float c = Array.map Int64.bits_of_float expected)

let test_mac_preconditions () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: accepted" what
  in
  let arr n = Array.make n 0.0 in
  let mac ~m ~n ~k la lb lc () = Mac.matmul_acc ~m ~n ~k (arr la) (arr lb) (arr lc) in
  rejects "short a" (mac ~m:2 ~n:3 ~k:4 7 12 6);
  rejects "short b" (mac ~m:2 ~n:3 ~k:4 8 11 6);
  rejects "short c" (mac ~m:2 ~n:3 ~k:4 8 12 5);
  rejects "negative m" (mac ~m:(-1) ~n:3 ~k:4 8 12 6);
  rejects "negative n" (mac ~m:2 ~n:(-3) ~k:4 8 12 6);
  rejects "negative k" (mac ~m:2 ~n:3 ~k:(-4) 8 12 6);
  (* m * k wraps to 0 in 63-bit ints *)
  rejects "m = 2^59, k = 16" (mac ~m:(1 lsl 59) ~n:1 ~k:16 16 16 16);
  mac ~m:2 ~n:3 ~k:4 8 12 6 ()

(* A tile dim whose products with the others wrap past 2^63 must fail
   the capacity check, not reach the MAC loop. *)
let test_matmul_tile_product_overflow () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V4 ~size:16 () in
  Alcotest.check_raises "wrapping tile product"
    (Failure "v4_16 accelerator: tile 576460752303423488x16x16 exceeds buffer capacity 4096")
    (fun () -> ignore (consume dev [| Axi_word.Inst Isa.mm_set_tm; Axi_word.Inst (1 lsl 59) |]))

let test_matmul_device_protocol_errors () =
  let dev = Accel_matmul.create ~version:Accel_matmul.V3 ~size:2 () in
  (match consume dev [| Axi_word.Inst Isa.mm_load_a; Axi_word.Data 1.0 |] with
  | exception Failure _ -> () (* truncated payload *)
  | _ -> Alcotest.fail "truncated payload accepted");
  let dev2 = Accel_matmul.create ~version:Accel_matmul.V3 ~size:2 () in
  match dev2.Accel_device.drain 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "drained an empty queue"

let test_conv_device () =
  let dev = Accel_conv.create () in
  let ic = 2 and fhw = 2 in
  let w = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |] in
  let patch = Array.init (ic * fhw * fhw) (fun i -> float_of_int (i + 1)) in
  let expected = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> v *. patch.(i)) w) in
  ignore
    (consume dev
       [|
         Axi_word.Inst Isa.reset;
         Axi_word.Inst Isa.cv_set_fhw; Axi_word.Inst fhw;
         Axi_word.Inst Isa.cv_set_ic; Axi_word.Inst ic;
       |]);
  ignore (consume dev (concat [ [| Axi_word.Inst Isa.cv_load_w |]; tile_words w ]));
  ignore (consume dev (concat [ [| Axi_word.Inst Isa.cv_patch |]; tile_words patch ]));
  Alcotest.(check int) "pending until drained" 0 (dev.Accel_device.available ());
  ignore (consume dev [| Axi_word.Inst Isa.cv_drain |]);
  Alcotest.(check int) "released" 1 (dev.Accel_device.available ());
  let out = dev.Accel_device.drain 1 in
  Alcotest.(check (float 1e-9)) "inner product" expected out.(0)

let test_conv_device_requires_config () =
  let dev = Accel_conv.create () in
  match consume dev [| Axi_word.Inst Isa.cv_load_w |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unconfigured weight load accepted"

let make_soc_with_v3 () =
  let soc = Soc.create () in
  let config = Presets.matmul ~version:Accel_matmul.V3 ~size:2 () in
  let engine = Accel_config.attach soc config in
  (soc, engine)

let test_dma_engine_staging () =
  let soc, engine = make_soc_with_v3 () in
  Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.reset);
  Alcotest.(check int) "high water" 1 (Dma_engine.staged_high_water engine);
  Dma_engine.send_staged engine;
  Alcotest.(check int) "reset after send" 0 (Dma_engine.staged_high_water engine);
  Alcotest.(check (float 0.0)) "one transaction" 1.0 soc.Soc.counters.Perf_counters.dma_transactions;
  Alcotest.(check (float 0.0)) "one word" 1.0 soc.Soc.counters.Perf_counters.dma_words_sent;
  (* empty flush is free *)
  Dma_engine.send_staged engine;
  Alcotest.(check (float 0.0)) "no extra transaction" 1.0
    soc.Soc.counters.Perf_counters.dma_transactions

let test_dma_engine_protocol () =
  let _soc, engine = make_soc_with_v3 () in
  let raises msg f = Alcotest.check_raises msg (Failure ("DMA engine: " ^ msg)) f in
  raises "wait_send without a pending send" (fun () -> Dma_engine.wait_send engine);
  Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.reset);
  Dma_engine.start_send engine ~offset:0 ~len_words:1;
  raises "send already in flight" (fun () ->
      Dma_engine.start_send engine ~offset:0 ~len_words:1);
  Dma_engine.wait_send engine;
  raises "wait_recv without a pending recv" (fun () -> ignore (Dma_engine.wait_recv engine));
  raises "negative recv length" (fun () -> Dma_engine.start_recv engine ~len_words:(-1));
  raises "recv exceeds output region" (fun () ->
      Dma_engine.start_recv engine ~len_words:max_int);
  raises "recv exceeds output region" (fun () ->
      ignore (Dma_engine.start_recv_token engine ~len_words:max_int));
  Dma_engine.start_recv engine ~len_words:0;
  raises "recv already in flight" (fun () -> Dma_engine.start_recv engine ~len_words:0);
  Alcotest.(check int) "the pending receive completes" 0
    (Array.length (Dma_engine.wait_recv engine));
  raises "wait_recv without a pending recv" (fun () -> ignore (Dma_engine.wait_recv engine));
  Alcotest.check_raises "region overflow"
    (Failure
       (Printf.sprintf "DMA input region overflow: offset 1000000, capacity %d"
          (Dma_engine.in_capacity_words engine)))
    (fun () -> Dma_engine.stage engine ~offset:1_000_000 (Axi_word.Inst 0))

let test_dma_overlap_timing () =
  (* the device computes while the host continues; wait_recv stalls the
     host clock to the device's completion time *)
  let soc, engine = make_soc_with_v3 () in
  let a = Array.make 4 1.0 and b = Array.make 4 1.0 in
  let words =
    Array.concat
      [
        [| Axi_word.Inst Isa.mm_load_a |];
        Array.map (fun v -> Axi_word.Data v) a;
        [| Axi_word.Inst Isa.mm_load_b |];
        Array.map (fun v -> Axi_word.Data v) b;
        [| Axi_word.Inst Isa.mm_compute; Axi_word.Inst Isa.mm_drain |];
      ]
  in
  Array.iteri (fun i w -> Dma_engine.stage engine ~offset:i w) words;
  Dma_engine.send_staged engine;
  let busy = soc.Soc.counters.Perf_counters.accel_busy_cycles in
  Alcotest.(check bool) "device busy counted" true (busy > 0.0);
  Dma_engine.start_recv engine ~len_words:4;
  let data = Dma_engine.wait_recv engine in
  Alcotest.(check int) "received" 4 (Array.length data);
  Alcotest.(check (float 0.0)) "words received counted" 4.0
    soc.Soc.counters.Perf_counters.dma_words_received

(* Pins the engine's accounting on every transfer path: the blocking
   pair, two ping-pong flushes (the second stalls on the first), a
   token send waited in flight, one waited after it drained, and a
   token receive. After each path it compares every counter's bits,
   the timeline events the path added, and the registry mirrors of the
   counters against values recorded from the reference engine. *)
let test_dma_accounting_pin () =
  Metrics.enable Metrics.default;
  Metrics.reset Metrics.default;
  Fun.protect ~finally:(fun () -> Metrics.disable Metrics.default) @@ fun () ->
  let soc, engine = make_soc_with_v3 () in
  let ones = Array.make 4 1.0 in
  let stage_tile () =
    Dma_engine.stage_inst engine ~offset:0 Isa.mm_load_a;
    Dma_engine.stage_run engine ~offset:1 ones 0 4;
    Dma_engine.stage_inst engine ~offset:5 Isa.mm_load_b;
    Dma_engine.stage_run engine ~offset:6 ones 0 4;
    Dma_engine.stage_inst engine ~offset:10 Isa.mm_compute;
    Dma_engine.stage_inst engine ~offset:11 Isa.mm_drain
  in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let seen = ref (-1) in
  let snapshot () =
    let counters =
      List.map (fun (k, v) -> k ^ "=" ^ bits v) (Perf_counters.fields soc.Soc.counters)
    in
    let events =
      List.filter_map
        (fun e ->
          let open Timeline in
          if e.ev_seq <= !seen then None
          else
            Some
              (Printf.sprintf "%s %s %s %s dep=%s%s" e.ev_agent e.ev_label (bits e.ev_start)
                 (bits e.ev_finish)
                 (match e.ev_dep with Some d -> string_of_int d | None -> "-")
                 (if e.ev_mark then " mark" else "")))
        (Timeline.events soc.Soc.timeline)
    in
    seen := Timeline.last_seq soc.Soc.timeline;
    counters @ events
  in
  (* the registry mirrors must equal their counters to the bit *)
  let check_mirrors () =
    let c = soc.Soc.counters in
    List.iter
      (fun (name, v) ->
        Alcotest.(check string) name (bits v) (bits (Metrics.total name)))
      [
        ("sim.dma_transactions", c.Perf_counters.dma_transactions);
        ("sim.dma_words_sent", c.Perf_counters.dma_words_sent);
        ("sim.dma_words_received", c.Perf_counters.dma_words_received);
        ("sim.accel_busy_cycles", c.Perf_counters.accel_busy_cycles);
      ]
  in
  let pin name expected =
    Alcotest.(check (list string)) name expected (snapshot ());
    check_mirrors ()
  in
  stage_tile ();
  Dma_engine.send_staged engine;
  Dma_engine.start_recv engine ~len_words:4;
  ignore (Dma_engine.wait_recv engine);
  pin "blocking send and receive"
    [
      "cycles=40b3d80000000000";
      "instructions=4044000000000000";
      "branches=0";
      "l1_accesses=0";
      "l1_misses=0";
      "l2_accesses=0";
      "l2_misses=0";
      "dma_transactions=4000000000000000";
      "dma_words_sent=4028000000000000";
      "dma_words_received=4010000000000000";
      "accel_busy_cycles=4022492492492492";
      "flops=0";
      "host program_send 0 409c200000000000 dep=- mark";
      "host host_send 409c200000000000 409d100000000000 dep=- mark";
      "host dma_poll 409d100000000000 40a4000000000000 dep=- mark";
      "host program_recv 40a4000000000000 40b1080000000000 dep=- mark";
      "host host_recv 40b1080000000000 40b11c0000000000 dep=- mark";
      "host dma_poll 40b11c0000000000 40b3d80000000000 dep=- mark";
    ];
  stage_tile ();
  Dma_engine.send_staged_async engine;
  stage_tile ();
  Dma_engine.send_staged_async engine;
  pin "ping-pong flushes"
    [
      "cycles=40c1120000000000";
      "instructions=4054000000000000";
      "branches=0";
      "l1_accesses=0";
      "l1_misses=0";
      "l2_accesses=0";
      "l2_misses=0";
      "dma_transactions=4010000000000000";
      "dma_words_sent=4042000000000000";
      "dma_words_received=4010000000000000";
      "accel_busy_cycles=403b6db6db6db6db";
      "flops=0";
      "host program_send 40b3d80000000000 40bae00000000000 dep=- mark";
      "host send_sync 40bae00000000000 40bb1c0000000000 dep=- mark";
      "host program_send 40bb1c0000000000 40c1120000000000 dep=- mark";
    ];
  stage_tile ();
  ignore (Dma_engine.wait_token engine (Dma_engine.start_send_token engine));
  pin "token send waited in flight"
    [
      "cycles=40c6120000000000";
      "instructions=405a000000000000";
      "branches=0";
      "l1_accesses=0";
      "l1_misses=0";
      "l2_accesses=0";
      "l2_misses=0";
      "dma_transactions=4014000000000000";
      "dma_words_sent=4048000000000000";
      "dma_words_received=4010000000000000";
      "accel_busy_cycles=4042492492492492";
      "flops=0";
      "host program_send 40c1120000000000 40c4960000000000 dep=- mark";
      "dma0 send 40c4960000000000 40c4b40000000000 dep=-";
      "host token_stall 40c4960000000000 40c4b40000000000 dep=10 mark";
      "v3_2 compute 40c4b40000000000 40c4c2db6db6db6e dep=10";
      "host dma_poll 40c4b40000000000 40c6120000000000 dep=- mark";
    ];
  stage_tile ();
  let tok = Dma_engine.start_send_token engine in
  Soc.alu soc 100_000;
  ignore (Dma_engine.wait_token engine tok);
  pin "token send waited after it drained"
    [
      "cycles=40fb9fe000000000";
      "instructions=40f8720000000000";
      "branches=0";
      "l1_accesses=0";
      "l1_misses=0";
      "l2_accesses=0";
      "l2_misses=0";
      "dma_transactions=4018000000000000";
      "dma_words_sent=404e000000000000";
      "dma_words_received=4010000000000000";
      "accel_busy_cycles=4046db6db6db6db6";
      "flops=0";
      "host program_send 40c6120000000000 40c9960000000000 dep=- mark";
      "dma0 send 40c9960000000000 40c9b40000000000 dep=-";
      "v3_2 compute 40c9b40000000000 40c9c2db6db6db6e dep=15";
      "host status_check 40fb9cc000000000 40fb9fe000000000 dep=- mark";
    ];
  ignore (Dma_engine.wait_token engine (Dma_engine.start_recv_token engine ~len_words:4));
  pin "token receive"
    [
      "cycles=40fc3d6000000000";
      "instructions=40f8738000000000";
      "branches=0";
      "l1_accesses=0";
      "l1_misses=0";
      "l2_accesses=0";
      "l2_misses=0";
      "dma_transactions=401c000000000000";
      "dma_words_sent=404e000000000000";
      "dma_words_received=4020000000000000";
      "accel_busy_cycles=4046db6db6db6db6";
      "flops=0";
      "host program_recv 40fb9fe000000000 40fc106000000000 dep=- mark";
      "dma0 recv 40fc106000000000 40fc11a000000000 dep=11";
      "host token_stall 40fc106000000000 40fc11a000000000 dep=19 mark";
      "host dma_poll 40fc11a000000000 40fc3d6000000000 dep=- mark";
    ]

(* The blocking receive as generated runtime code spells it: four
   calls, the sequence {!Dma_library.recv_into} folds. *)
let recv_in_four_calls lib strategy view ~accumulate =
  let engine = Dma_library.engine lib in
  Dma_library.flush_send lib;
  Dma_engine.start_recv engine ~len_words:(Memref_view.num_elements view);
  Dma_library.copy_from_data_with lib strategy view ~accumulate (Dma_engine.wait_recv engine)

(* One blocking v4_16 tile round trip through the runtime library, as
   generated code drives it: copies of A and B into the DMA region, a
   flush, a receive and a copy back into C, all with [strategy]. *)
let round_trip_rig ?(strategy = Dma_library.Specialized) ?(accumulate = true)
    ?(recv = recv_in_four_calls) () =
  let soc = Soc.create () in
  ignore (Accel_config.attach soc (Presets.matmul ~version:Accel_matmul.V4 ~size:16 ()));
  let lib = Dma_library.init soc ~dma_id:0 ~strategy in
  let tile label =
    let buf = Sim_memory.alloc soc.Soc.memory ~label 256 in
    Gold.fill_deterministic buf.Sim_memory.data;
    Memref_view.of_buffer buf [ 16; 16 ]
  in
  let a = tile "a" and b = tile "b" and c = tile "c" in
  let round_trip () =
    let off = Dma_library.stage_literal lib Isa.mm_load_a ~offset:0 in
    let off = Dma_library.copy_to_dma_region_with lib strategy a ~offset:off in
    let off = Dma_library.stage_literal lib Isa.mm_load_b ~offset:off in
    let off = Dma_library.copy_to_dma_region_with lib strategy b ~offset:off in
    let off = Dma_library.stage_literal lib Isa.mm_compute ~offset:off in
    ignore (Dma_library.stage_literal lib Isa.mm_drain ~offset:off);
    recv lib strategy c ~accumulate
  in
  (soc, c, round_trip)

(* [Dma_library.recv_into] against the four calls it folds, for every
   strategy with and without accumulation: the same output bytes, the
   same bits in every counter and the same timeline events. *)
let test_recv_into_parity () =
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let run strategy accumulate recv =
    let soc, c, round_trip = round_trip_rig ~strategy ~accumulate ~recv () in
    round_trip ();
    round_trip ();
    List.map (fun (k, v) -> k ^ "=" ^ bits v) (Perf_counters.fields soc.Soc.counters)
    @ List.map
        (fun (e : Timeline.event) ->
          String.concat " " [ e.ev_agent; e.ev_label; bits e.ev_start; bits e.ev_finish ])
        (Timeline.events soc.Soc.timeline)
    @ Array.to_list (Array.map bits c.Memref_view.buf.Sim_memory.data)
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun accumulate ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, accumulate %b" (Dma_library.strategy_to_string strategy)
               accumulate)
            (run strategy accumulate recv_in_four_calls)
            (run strategy accumulate Dma_library.recv_into))
        [ false; true ])
    [ Dma_library.Generic; Dma_library.Specialized; Dma_library.Bare ]

(* With tracing and metrics off, a warm round trip allocates only the
   simulation's own bookkeeping: no trace arguments, metric labels,
   span closures or received-words array. Measured at 217 words per
   warm round trip (native code, OCaml 5.1.1 without flambda), against
   716 before those were skipped. The budget of 250 leaves room for
   compiler drift, not for per-word or per-event garbage to come back;
   a compiler change may need it re-measured. *)
let test_round_trip_allocation () =
  Alcotest.(check bool) "metrics off" false (Metrics.enabled Metrics.default);
  let _soc, _c, round_trip = round_trip_rig () in
  (* warm: the timeline's logs grow to their working size *)
  for _ = 1 to 100 do
    round_trip ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    round_trip ()
  done;
  let per_trip = (Gc.minor_words () -. before) /. 100.0 in
  if per_trip > 250.0 then
    Alcotest.failf "%.1f minor words per round trip, budget 250" per_trip

(* The same round trip traced: the guards skip nothing a recording
   sink should see. *)
let test_round_trip_traced () =
  let soc, _c, round_trip = round_trip_rig () in
  let tracer = Soc.enable_tracing soc in
  round_trip ();
  let named kind =
    List.filter_map
      (fun (e : Trace.event) -> if e.ev_kind = kind then Some e.ev_name else None)
      (Trace.events tracer)
  in
  Alcotest.(check (list string)) "spans"
    [
      "copy_to_dma_region"; "copy_to_dma_region"; "program_send"; "wait_send"; "program_recv";
      "wait_recv"; "accel_stall"; "copy_from_data";
    ]
    (named Trace.Begin);
  Alcotest.(check (list string)) "instants" [ "mm_compute" ] (named Trace.Instant);
  Alcotest.(check int) "balanced" 0 (Trace.open_spans tracer)

let test_soc_event_costs () =
  let soc = Soc.create () in
  let c = soc.Soc.counters in
  Soc.alu soc 5;
  Alcotest.(check (float 0.0)) "alu cycles" 5.0 c.Perf_counters.cycles;
  Soc.branch soc 2;
  Alcotest.(check (float 0.0)) "branches" 2.0 c.Perf_counters.branches;
  let buf = Sim_memory.alloc soc.Soc.memory ~label:"x" 64 in
  Soc.charge_access soc (Sim_memory.addr_of buf 0);
  Alcotest.(check (float 0.0)) "fresh buffer zero" 0.0 buf.Sim_memory.data.(0);
  Alcotest.(check (float 0.0)) "one access one miss" 1.0 c.Perf_counters.l1_misses;
  Soc.charge_access soc (Sim_memory.addr_of buf 1);
  Alcotest.(check (float 0.0)) "second is hit" 1.0 c.Perf_counters.l1_misses;
  Alcotest.(check (float 0.0)) "refs = l1 + l2" (Perf_counters.cache_references c)
    (c.Perf_counters.l1_accesses +. c.Perf_counters.l2_accesses)

let test_soc_reset_run_state () =
  let soc, engine = make_soc_with_v3 () in
  ignore engine;
  Soc.alu soc 5;
  let buf = Sim_memory.alloc soc.Soc.memory ~label:"y" 8 in
  Sim_memory.set buf 0 9.0;
  Soc.reset_run_state soc;
  Alcotest.(check (float 0.0)) "counters cleared" 0.0 soc.Soc.counters.Perf_counters.cycles;
  Alcotest.(check (float 0.0)) "memory preserved" 9.0 (Sim_memory.get buf 0)

(* ------------------------------------------------------------------ *)
(* Cache property tests: the LRU law, warm-up behaviour, and miss-rate
   monotonicity under repeated sweeps.                                 *)
(* ------------------------------------------------------------------ *)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* A single-set 4-way cache makes the LRU replacement order directly
   observable: every line maps to the same set. *)
let one_set = { Cache.size_bytes = 128; line_bytes = 32; assoc = 4 }

let prop_lru_eviction_order =
  QCheck.Test.make ~name:"single set follows exact LRU order" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 7))
    (fun lines ->
      let cache = Cache.create [ one_set ] in
      (* reference model: resident lines, most recently used first *)
      let model = ref [] in
      List.iter
        (fun line ->
          ignore (Cache.access cache (line * one_set.Cache.line_bytes));
          let rest = List.filter (( <> ) line) !model in
          model := line :: take (one_set.Cache.assoc - 1) rest)
        lines;
      List.for_all
        (fun line ->
          Cache.resident cache ~level:1 (line * one_set.Cache.line_bytes)
          = List.mem line !model)
        (List.init 8 Fun.id))

(* 4 KiB, 4-way, 32 sets: big enough to stripe across sets, small
   enough that the generators cover both the fits and thrashes regimes. *)
let small_l1 = { Cache.size_bytes = 4096; line_bytes = 32; assoc = 4 }

let capacity_lines g = g.Cache.size_bytes / g.Cache.line_bytes

let sweep_misses cache g n_lines =
  let misses = ref 0 in
  for line = 0 to n_lines - 1 do
    if Cache.access cache (line * g.Cache.line_bytes) > 1 then
      incr misses
  done;
  !misses

let prop_warm_footprint_all_hits =
  QCheck.Test.make
    ~name:"footprint within capacity never misses after warm-up" ~count:200
    QCheck.(
      pair
        (int_range 1 (capacity_lines small_l1))
        (list_of_size Gen.(int_range 1 60) small_nat))
    (fun (n_lines, accesses) ->
      let cache = Cache.create [ small_l1 ] in
      (* warm-up sweep: a contiguous footprint of at most the capacity
         places at most [assoc] lines in each set, so nothing evicts *)
      ignore (sweep_misses cache small_l1 n_lines);
      List.for_all
        (fun a ->
          Cache.access cache (a mod n_lines * small_l1.Cache.line_bytes)
          = 1)
        accesses)

let prop_sweep_misses_monotone =
  QCheck.Test.make ~name:"per-sweep misses are non-increasing" ~count:200
    QCheck.(int_range 1 (2 * capacity_lines small_l1))
    (fun n_lines ->
      let cache = Cache.create [ small_l1 ] in
      let m1 = sweep_misses cache small_l1 n_lines in
      let m2 = sweep_misses cache small_l1 n_lines in
      let m3 = sweep_misses cache small_l1 n_lines in
      m2 <= m1 && m3 <= m2)

let tests =
  [
    Alcotest.test_case "sim memory" `Quick test_sim_memory;
    Alcotest.test_case "counter arithmetic" `Quick test_counters_arith;
    Alcotest.test_case "v3 device computes a tile" `Quick test_matmul_device_v3;
    Alcotest.test_case "device accumulates and clears" `Quick test_matmul_device_accumulates;
    Alcotest.test_case "v1 fused instruction" `Quick test_matmul_device_v1_fused;
    Alcotest.test_case "version gating" `Quick test_matmul_device_version_gating;
    Alcotest.test_case "v4 flexible tiles" `Quick test_matmul_device_v4_flex;
    Alcotest.test_case "device protocol errors" `Quick test_matmul_device_protocol_errors;
    Alcotest.test_case "tile product overflow" `Quick test_matmul_tile_product_overflow;
    QCheck_alcotest.to_alcotest prop_mac_kernel_bits;
    Alcotest.test_case "MAC kernel preconditions" `Quick test_mac_preconditions;
    Alcotest.test_case "Gold MAC order keeps the bits" `Quick test_gold_mac_order;
    Alcotest.test_case "v4 MAC order keeps the bits" `Quick test_v4_mac_order;
    Alcotest.test_case "conv device" `Quick test_conv_device;
    Alcotest.test_case "conv requires configuration" `Quick test_conv_device_requires_config;
    Alcotest.test_case "dma staging" `Quick test_dma_engine_staging;
    Alcotest.test_case "dma protocol errors" `Quick test_dma_engine_protocol;
    Alcotest.test_case "dma/device overlap" `Quick test_dma_overlap_timing;
    Alcotest.test_case "dma accounting on every transfer path" `Quick
      test_dma_accounting_pin;
    Alcotest.test_case "recv_into matches the four-call receive" `Quick test_recv_into_parity;
    Alcotest.test_case "round trip allocation budget" `Quick test_round_trip_allocation;
    Alcotest.test_case "traced round trip records its events" `Quick test_round_trip_traced;
    Alcotest.test_case "soc event costs" `Quick test_soc_event_costs;
    Alcotest.test_case "soc reset preserves memory" `Quick test_soc_reset_run_state;
    QCheck_alcotest.to_alcotest prop_lru_eviction_order;
    QCheck_alcotest.to_alcotest prop_warm_footprint_all_hits;
    QCheck_alcotest.to_alcotest prop_sweep_misses_monotone;
  ]
