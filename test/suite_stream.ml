(* The simulator's data path: what the runtime copies stage into the DMA
   input region, how devices decode it, the messages its failures
   carry, and the allocation the hot path is allowed. *)

(* ------------------------------------------------------------------ *)
(* Allocation guards                                                   *)
(* ------------------------------------------------------------------ *)

(* Minor words allocated by [f ()], net of what measuring an empty
   call allocates. Allocation is deterministic for a fixed binary. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let net_minor_words f = minor_words_of f -. minor_words_of ignore

let test_cache_access_allocates_nothing () =
  let cache = Cache.create [ Cache.cortex_a9_l1; Cache.cortex_a9_l2 ] in
  let words =
    net_minor_words (fun () ->
        for i = 0 to 99_999 do
          ignore (Cache.access cache (i * 36))
        done)
  in
  Alcotest.(check (float 0.0)) "1e5 Cache.access calls" 0.0 words

let test_charge_access_allocates_nothing () =
  let soc = Soc.create () in
  let words =
    net_minor_words (fun () ->
        for i = 0 to 99_999 do
          Soc.charge_access soc (0x1000_0000 + (i * 36))
        done)
  in
  Alcotest.(check (float 0.0)) "1e5 Soc.charge_access calls" 0.0 words

(* [src.data.(pos .. pos+len-1)] staged as one contiguous run. *)
let stage_run engine ~offset src pos len =
  Dma_engine.stage_rows engine ~offset src pos ~len ~count:1 ~stride:0 ~rows:1 ~row_stride:0

(* Stage [mm_set_tm tm; mm_set_tk 64; mm_load_a <tm*64 words>] with one
   stage_run and send it to a v4_16 engine: returns the net minor words
   of staging plus the send. *)
let send_payload_words engine ~tm =
  let payload =
    { Sim_memory.base = 0; data = Array.init (tm * 64) float_of_int; label = "payload" }
  in
  let stage_and_send () =
    Dma_engine.stage_inst engine ~offset:0 Isa.mm_set_tm;
    Dma_engine.stage_inst engine ~offset:1 tm;
    Dma_engine.stage_inst engine ~offset:2 Isa.mm_set_tk;
    Dma_engine.stage_inst engine ~offset:3 64;
    Dma_engine.stage_inst engine ~offset:4 Isa.mm_load_a;
    stage_run engine ~offset:5 payload 0 (tm * 64);
    Dma_engine.send_staged engine
  in
  (* the first send of a shape registers its metrics *)
  stage_and_send ();
  net_minor_words stage_and_send

let test_send_allocation_is_constant () =
  let soc = Soc.create () in
  let device = Accel_matmul.create ~version:Accel_matmul.V4 ~size:16 () in
  let engine =
    Soc.attach_engine soc ~dma_id:0 ~device ~in_capacity_words:8192 ~out_capacity_words:16
  in
  let small = send_payload_words engine ~tm:16 in
  let large = send_payload_words engine ~tm:64 in
  Alcotest.(check (float 0.0)) "a 4096-word payload allocates what a 1024-word one does"
    small large;
  Alcotest.(check bool)
    (Printf.sprintf "O(1): %.0f words for a 4096-word payload" large)
    true (large < 512.0)

(* A ResNet-18 3x3 layer at 64 channels, cut to a 4x4 output: each patch
   transaction carries 577 words, so allocating one word per staged or
   received word would show several times over. *)
let test_manual_conv_allocation_per_dma_word () =
  let accel = Presets.conv () in
  let bench = Axi4mlir.create accel in
  let n, ic, ih, iw, oc, fh, fw = (1, 64, 6, 6, 2, 3, 3) in
  let i, w, o = Axi4mlir.alloc_conv_operands bench ~n ~ic ~ih ~iw ~oc ~fh ~fw in
  let soc = bench.Axi4mlir.soc in
  let words =
    net_minor_words (fun () ->
        Manual_conv.run soc accel ~flow:"Rs" ~input:i ~filter:w ~output:o ())
  in
  let c = soc.Soc.counters in
  let dma_words = c.Perf_counters.dma_words_sent +. c.Perf_counters.dma_words_received in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per DMA word (%.0f / %.0f)" (words /. dma_words) words
       dma_words)
    true
    (words < dma_words)

(* Minor words per DMA transaction over a second measured run of a
   64x64x64 matmul on a 16-lane engine, with tracing and metrics off:
   the first run makes what is made once (the engine's receive region,
   the timeline's log). The bounds are the measured values: the whole
   path from the interpreter down to the device model allocates only
   interpreter values and, on the token path, tokens and flights. *)
let matmul_words_per_transaction ~version ~flow options =
  let was_enabled = Metrics.enabled Metrics.default in
  Metrics.disable Metrics.default;
  let accel = Presets.matmul ~version ~size:16 ~flow () in
  let bench = Axi4mlir.create accel in
  let m, n, k = (64, 64, 64) in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
  let run () =
    ignore (Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c))
  in
  run ();
  let words = net_minor_words run in
  if was_enabled then Metrics.enable Metrics.default;
  let transactions = bench.Axi4mlir.soc.Soc.counters.Perf_counters.dma_transactions in
  (words /. transactions, words, transactions)

let check_words_per_transaction what ~bound (per, words, transactions) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words per DMA transaction (%.0f / %.0f), bound %.0f" what per
       words transactions bound)
    true (per <= bound)

let test_blocking_matmul_words_per_transaction () =
  matmul_words_per_transaction ~version:Accel_matmul.V3 ~flow:"Cs" Axi4mlir.default_codegen
  |> check_words_per_transaction "v3_16 Cs" ~bound:12.0

let test_double_buffered_matmul_words_per_transaction () =
  matmul_words_per_transaction ~version:Accel_matmul.V4 ~flow:"Ns"
    { Axi4mlir.default_codegen with double_buffer = true }
  |> check_words_per_transaction "v4_16 Ns double_buffer" ~bound:86.0

(* A rank-4 strided view, walked with a closure made beforehand. *)
let test_iter_runs_allocates_nothing () =
  let mem = Sim_memory.create () in
  let buf = Sim_memory.alloc mem ~label:"x" (2 * 8 * 6 * 6) in
  let view =
    Memref_view.subview
      (Memref_view.of_buffer buf [ 2; 8; 6; 6 ])
      ~offsets:[ 1; 0; 1; 1 ] ~sizes:[ 1; 8; 3; 3 ]
  in
  let elements = ref 0 in
  let f _ len = elements := !elements + len in
  let words = net_minor_words (fun () -> Memref_view.iter_runs view f) in
  Alcotest.(check int) "elements visited" 72 !elements;
  Alcotest.(check (float 0.0)) "words per iter_runs call" 0.0 words

(* Every copy, in each strategy and direction, on a strided rank-4 view
   (runs of 3 under two leading dims) and on one with an innermost
   stride of 2 (runs of 1). *)
let test_copies_allocate_nothing () =
  let was_enabled = Metrics.enabled Metrics.default in
  Metrics.disable Metrics.default;
  let soc = Soc.create () in
  let device = Accel_conv.create () in
  ignore (Soc.attach_engine soc ~dma_id:0 ~device ~in_capacity_words:512 ~out_capacity_words:16);
  let buf = Sim_memory.alloc soc.Soc.memory ~label:"x" (2 * 8 * 6 * 12) in
  let whole = Memref_view.of_buffer buf [ 2; 8; 6; 12 ] in
  let runs3 = Memref_view.subview whole ~offsets:[ 1; 0; 1; 1 ] ~sizes:[ 1; 8; 3; 3 ] in
  let stepped =
    Memref_view.subview
      { whole with Memref_view.shape = [ 2; 8; 6; 6 ]; strides = [ 576; 72; 12; 2 ] }
      ~offsets:[ 0; 1; 1; 1 ] ~sizes:[ 2; 4; 3; 3 ]
  in
  let data = Array.make 144 0.5 in
  List.iter
    (fun (what, view) ->
      List.iter
        (fun strategy ->
          let lib = Dma_library.init soc ~dma_id:0 ~strategy in
          let name dir =
            Printf.sprintf "%s, %s, %s" what (Dma_library.strategy_to_string strategy) dir
          in
          let check dir f =
            f ();
            Alcotest.(check (float 0.0)) (name dir) 0.0 (net_minor_words f)
          in
          check "to DMA" (fun () ->
              ignore (Dma_library.copy_to_dma_region_with lib strategy view ~offset:0));
          check "from DMA, store" (fun () ->
              Dma_library.copy_from_data_with lib strategy view ~accumulate:false data);
          check "from DMA, accumulate" (fun () ->
              Dma_library.copy_from_data_with lib strategy view ~accumulate:true data))
        Dma_library.[ Generic; Specialized; Bare ])
    [ ("runs of 3", runs3); ("innermost stride 2", stepped) ];
  if was_enabled then Metrics.enable Metrics.default

(* The CPU reference kernels on small strided problems: a boxed
   accumulator or a per-MAC closure shows here. *)
let test_cpu_reference_allocates_nothing () =
  let soc = Soc.create () in
  let view dims =
    let buf = Sim_memory.alloc soc.Soc.memory ~label:"x" (List.fold_left ( * ) 1 dims) in
    Memref_view.of_buffer buf dims
  in
  let slice dims offsets sizes = Memref_view.subview (view dims) ~offsets ~sizes in
  let a = slice [ 9; 8 ] [ 1; 2 ] [ 7; 5 ] and b = view [ 5; 6 ] in
  let c = slice [ 8; 7 ] [ 1; 1 ] [ 7; 6 ] in
  let input = slice [ 2; 4; 7; 7 ] [ 1; 1; 0; 1 ] [ 1; 3; 6; 6 ] in
  let filter = view [ 2; 3; 3; 3 ] and output = view [ 1; 2; 4; 4 ] in
  let check name f =
    f ();
    Alcotest.(check (float 0.0)) name 0.0 (net_minor_words f)
  in
  check "matmul" (fun () -> Cpu_reference.matmul soc ~a ~b ~c);
  check "matmul_optimized, exact" (fun () -> Cpu_reference.matmul_optimized soc ~a ~b ~c ());
  check "conv2d" (fun () -> Cpu_reference.conv2d soc ~input ~filter ~output)

(* The exact minor words of one small conv layer through the manual Rs
   driver and through the generated Os code (fHW=3, iC=8, a 5x6 input,
   two output channels), measured on the second run of each. These pin
   allocation identity: a change that only makes the simulator faster
   must leave both numbers as they are. A compiler or OCaml runtime
   change re-pins them; a speed change never does. *)
let conv_run_minor_words ~manual =
  let was_enabled = Metrics.enabled Metrics.default in
  Metrics.disable Metrics.default;
  let accel = Presets.conv ~flow:(if manual then "Ws" else "Os") () in
  let bench = Axi4mlir.create accel in
  let n, ic, ih, iw, oc, fh, fw = (1, 8, 5, 6, 2, 3, 3) in
  let i, w, o = Axi4mlir.alloc_conv_operands bench ~n ~ic ~ih ~iw ~oc ~fh ~fw in
  let run =
    if manual then fun () ->
      ignore
        (Axi4mlir.measure bench (fun () ->
             Manual_conv.run bench.Axi4mlir.soc accel ~flow:"Rs" ~input:i ~filter:w
               ~output:o ()))
    else begin
      let compiled =
        Axi4mlir.compile bench (Axi4mlir.build_conv_module ~n ~ic ~ih ~iw ~oc ~fh ~fw ())
      in
      fun () ->
        ignore
          (Axi4mlir.measure bench (fun () ->
               Axi4mlir.run_func bench ~copy_strategy:Dma_library.Specialized compiled
                 "conv_call"
                 [ Interp.M i; Interp.M w; Interp.M o ]))
    end
  in
  run ();
  let words = net_minor_words run in
  if was_enabled then Metrics.enable Metrics.default;
  words

let test_conv_minor_words_pinned () =
  Alcotest.(check (float 0.0)) "manual Rs conv run" 1081.0 (conv_run_minor_words ~manual:true);
  Alcotest.(check (float 0.0)) "generated Os conv run" 921.0 (conv_run_minor_words ~manual:false)

(* ------------------------------------------------------------------ *)
(* What the copies stage                                               *)
(* ------------------------------------------------------------------ *)

(* A device that records every word of a transaction with its tag:
   [(true, v)] for an instruction word, [(false, v)] for data. *)
let tagging_device () =
  let seen = ref [] in
  let one = [| 0.0 |] in
  let consume win _ =
    while not (Axi_word.at_end win) do
      match Axi_word.read_data ~who:"tagger" win one 1 with
      | () -> seen := (false, one.(0)) :: !seen
      | exception Failure _ ->
        seen := (true, float_of_int (Axi_word.next_inst ~who:"tagger" win)) :: !seen
    done
  in
  let device =
    {
      Accel_device.device_name = "tagger";
      consume;
      drain = (fun _ -> [||]);
      drain_into = (fun _ _ -> ());
      available = (fun () -> 0);
      reset_device = ignore;
      regions = [];
    }
  in
  (device, fun () -> List.rev !seen)

let recording_lib ~capacity strategy =
  let soc = Soc.create () in
  let device, recorded = tagging_device () in
  let engine =
    Soc.attach_engine soc ~dma_id:0 ~device ~in_capacity_words:capacity
      ~out_capacity_words:16
  in
  (soc, engine, Dma_library.init soc ~dma_id:0 ~strategy, recorded)

(* A view of rank 1-4: per dimension an extent, a slice offset and a
   size; the innermost dimension optionally steps by 2 through its
   buffer. *)
type view_spec = { dims : int list; step : int; slices : (int * int) list }

let gen_spec =
  QCheck.Gen.(
    int_range 1 4 >>= fun rank ->
    list_repeat rank (int_range 1 5) >>= fun dims ->
    oneofl [ 1; 2 ] >>= fun step ->
    flatten_l
      (List.map
         (fun d ->
           int_range 0 (d - 1) >>= fun off ->
           map
             (fun size -> (off, size))
             (frequency [ (1, return 1); (2, int_range 0 (d - off)) ]))
         dims)
    >>= fun slices -> return { dims; step; slices })

(* A [1 x C x k x k] conv patch, k = 1 or 3, of a larger rank-4 input:
   one block of C rows of k runs at k = 3, one row of C runs of 1 at
   k = 1. *)
let gen_patch =
  QCheck.Gen.(
    oneofl [ 1; 3 ] >>= fun k ->
    int_range 1 6 >>= fun c ->
    int_range 0 2 >>= fun c_off ->
    int_range k (k + 3) >>= fun h ->
    int_range k (k + 3) >>= fun w ->
    int_range 0 1 >>= fun n ->
    int_range 0 (h - k) >>= fun y ->
    int_range 0 (w - k) >>= fun x ->
    return
      {
        dims = [ 2; c + c_off; h; w ];
        step = 1;
        slices = [ (n, 1); (c_off, c); (y, k); (x, k) ];
      })

(* A 2-D tile of a larger matrix, its columns optionally stepping by 2. *)
let gen_tile =
  QCheck.Gen.(
    int_range 1 6 >>= fun rows ->
    int_range 1 6 >>= fun cols ->
    int_range 0 3 >>= fun r ->
    int_range 0 3 >>= fun c ->
    oneofl [ 1; 2 ] >>= fun step ->
    return { dims = [ rows + r; cols + c ]; step; slices = [ (r, rows); (c, cols) ] })

let gen_view = QCheck.Gen.frequency [ (2, gen_spec); (1, gen_patch); (1, gen_tile) ]

let print_spec s =
  Printf.sprintf "dims=[%s] step=%d slices=[%s]"
    (String.concat ";" (List.map string_of_int s.dims))
    s.step
    (String.concat ";" (List.map (fun (o, n) -> Printf.sprintf "%d+%d" o n) s.slices))

let make_view mem spec =
  let last = List.length spec.dims - 1 in
  let scale_last f = List.mapi (fun i x -> if i = last then f x else x) in
  let phys = scale_last (fun d -> d * spec.step) spec.dims in
  let buf = Sim_memory.alloc mem ~label:"src" (List.fold_left ( * ) 1 phys) in
  Array.iteri
    (fun i _ -> buf.Sim_memory.data.(i) <- float_of_int (i + 1) *. 0.5)
    buf.Sim_memory.data;
  let base = Memref_view.of_buffer buf phys in
  let strided =
    {
      base with
      Memref_view.shape = spec.dims;
      strides = scale_last (fun s -> s * spec.step) base.Memref_view.strides;
    }
  in
  Memref_view.subview strided ~offsets:(List.map fst spec.slices)
    ~sizes:(List.map snd spec.slices)

(* Buffer indices of the view's elements in row-major order, from
   [linear_index] alone. *)
let reference_indices view =
  let rec coords = function
    | [] -> [ [] ]
    | d :: rest ->
      let tails = coords rest in
      List.concat_map (fun i -> List.map (fun t -> i :: t) tails) (List.init d Fun.id)
  in
  List.map (Memref_view.linear_index view) (coords view.Memref_view.shape)

let strategies = Dma_library.[ Generic; Specialized; Bare ]

(* What staging leaves in an engine with a tagging device: the
   high-water mark, then the words with their tags that a token send
   delivers, which run from the batch's lowest staged offset to that
   mark. *)
let staged_batch engine recorded =
  let high_water = Dma_engine.staged_high_water engine in
  ignore (Dma_engine.wait_token engine (Dma_engine.start_send_token engine));
  (high_water, recorded ())

(* A copy stages the words, tags, high-water mark and lowest offset
   that staging the view's elements one by one does, and visits them
   in row-major order. *)
let prop_copies_stage_the_view =
  QCheck.Test.make ~name:"every copy strategy stages exactly the view, as data" ~count:300
    (QCheck.make ~print:print_spec gen_view)
    (fun spec ->
      let at = 3 in
      List.for_all
        (fun strategy ->
          let soc, engine, lib, recorded = recording_lib ~capacity:1024 strategy in
          let view = make_view soc.Soc.memory spec in
          let d = view.Memref_view.buf.Sim_memory.data in
          let indices = reference_indices view in
          let visited = ref [] in
          Memref_view.iter_runs view (fun start len ->
              for i = start to start + len - 1 do
                visited := i :: !visited
              done);
          let expected = List.map (fun li -> d.(li)) indices in
          let next = Dma_library.copy_to_dma_region_with lib strategy view ~offset:at in
          let _, ref_engine, _, ref_recorded = recording_lib ~capacity:1024 strategy in
          List.iteri
            (fun i v -> Dma_engine.stage ref_engine ~offset:(at + i) (Axi_word.Data v))
            expected;
          List.rev !visited = indices
          && next = at + List.length expected
          && Array.to_list (Memref_view.to_array view) = expected
          && staged_batch engine recorded = staged_batch ref_engine ref_recorded)
        strategies)

let prop_copies_in_write_the_view =
  QCheck.Test.make ~name:"every copy strategy writes the view back, with and without +="
    ~count:300
    (QCheck.make ~print:print_spec gen_view)
    (fun spec ->
      List.for_all
        (fun (strategy, accumulate) ->
          let soc, _engine, lib, _ = recording_lib ~capacity:16 strategy in
          let view = make_view soc.Soc.memory spec in
          let d = view.Memref_view.buf.Sim_memory.data in
          let indices = reference_indices view in
          let data =
            Array.init (List.length indices) (fun i -> float_of_int ((i * 7) mod 11) -. 3.0)
          in
          let expected = Array.copy d in
          List.iteri
            (fun i li ->
              expected.(li) <- (if accumulate then expected.(li) +. data.(i) else data.(i)))
            indices;
          Dma_library.copy_from_data_with lib strategy view ~accumulate data;
          d = expected)
        (List.concat_map (fun s -> [ (s, false); (s, true) ]) strategies))

(* The output FIFO against Stdlib.Queue: pushes, bulk pushes and pops
   of random sizes, through compaction and growth. *)
let prop_fifo_is_a_queue =
  QCheck.Test.make ~name:"Accel_device.Fifo behaves as a queue" ~count:300
    QCheck.(list (pair (int_range 0 3) (int_range 0 700)))
    (fun ops ->
      let fifo = Accel_device.Fifo.create () and model = Queue.create () in
      let fresh = ref 0.0 and ok = ref true in
      let expect v = if v <> Queue.pop model then ok := false in
      List.iter
        (fun (op, n) ->
          match op with
          | 0 ->
            fresh := !fresh +. 1.0;
            Accel_device.Fifo.push fifo !fresh;
            Queue.push !fresh model
          | 1 ->
            let src = Array.init (n + 3) (fun i -> !fresh +. float_of_int i) in
            fresh := !fresh +. float_of_int (n + 3);
            Accel_device.Fifo.push_array fifo src 3 n;
            Array.iter (fun v -> Queue.push v model) (Array.sub src 3 n)
          | 2 ->
            let n = min n (Queue.length model) in
            let dst = Array.make (n + 1) 0.0 in
            Accel_device.Fifo.pop_into fifo dst 1 n;
            Array.iter expect (Array.sub dst 1 n)
          | _ ->
            let n = min n (Queue.length model) in
            Array.iter expect (Accel_device.Fifo.pop_array fifo n))
        ops;
      !ok && Accel_device.Fifo.length fifo = Queue.length model)

(* ------------------------------------------------------------------ *)
(* Copy-path parity: every observable effect of a copy, pinned         *)
(* ------------------------------------------------------------------ *)

(* The parity views: buffer shape, slice offsets and sizes, and whether
   the innermost dim steps by 2 through its buffer. Together they cover
   rank 1-4, runs of 1, 3, 4, 7 and 16, a non-unit innermost stride and
   an empty view. *)
let parity_views =
  [
    ("r1 run16", [ 16 ], [ 0 ], [ 16 ], 1);
    ("r2 run7", [ 8; 16 ], [ 1; 2 ], [ 3; 7 ], 1);
    ("r2 whole run16", [ 4; 4 ], [ 0; 0 ], [ 4; 4 ], 1);
    ("r3 run3", [ 4; 6; 6 ], [ 1; 1; 1 ], [ 2; 3; 3 ], 1);
    ("r3 plane run16", [ 2; 4; 4 ], [ 1; 0; 0 ], [ 1; 4; 4 ], 1);
    ("r4 run1", [ 2; 8; 6; 6 ], [ 1; 0; 1; 1 ], [ 1; 8; 1; 1 ], 1);
    ("r4 run4", [ 2; 4; 6; 6 ], [ 0; 1; 2; 2 ], [ 2; 2; 4; 4 ], 1);
    ("r4 run7", [ 1; 3; 9; 9 ], [ 0; 0; 1; 1 ], [ 1; 3; 7; 7 ], 1);
    ("r2 stride2", [ 4; 8 ], [ 0; 1 ], [ 4; 3 ], 2);
    ("r3 empty", [ 2; 3; 4 ], [ 0; 1; 0 ], [ 2; 0; 4 ], 1);
  ]

let parity_view ?(salt = 37) mem (_, dims, offsets, sizes, step) =
  let last = List.length dims - 1 in
  let phys = List.mapi (fun i d -> if i = last then d * step else d) dims in
  let buf = Sim_memory.alloc mem ~label:"parity" (List.fold_left ( * ) 1 phys) in
  Array.iteri
    (fun i _ -> buf.Sim_memory.data.(i) <- float_of_int ((i * salt) mod 101) *. 0.3)
    buf.Sim_memory.data;
  let base = Memref_view.of_buffer buf phys in
  let strided =
    {
      base with
      Memref_view.shape = dims;
      strides =
        List.mapi (fun i s -> if i = last then s * step else s) base.Memref_view.strides;
    }
  in
  Memref_view.subview strided ~offsets ~sizes

(* FNV-1a over 64-bit words. *)
let fnv_words words =
  List.fold_left
    (fun h w ->
      let h = ref h in
      for b = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical w (8 * b)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    0xcbf29ce484222325L words

let float_bits = List.map Int64.bits_of_float

(* Every per-element and per-run charge of this cost is off the dyadic
   grid, with unrelated low-order bits, so adding a counter's charges in
   another grouping (or as [n *. c]) rounds differently and shows in the
   bits. *)
let ragged_cost =
  {
    Cost_model.default with
    alu_cycles = 1.0 /. 3.0;
    fpu_cycles = Float.exp 1.0;
    branch_cycles = Float.sqrt 0.5;
    l1_hit_cycles = Float.sqrt 2.0;
    l2_hit_cycles = Float.exp 2.0;
    dram_cycles = 59.0 +. (1.0 /. 7.0);
    uncached_store_cycles = Float.sqrt 3.0;
    uncached_load_cycles = Float.pi;
    memcpy_row_setup_cycles = 4.0 +. (1.0 /. 9.0);
  }

(* One parity line: run the copy twice (the second pass meets a warm
   cache), zeroing the counters before each copy and reading them right
   after it, so each copy's charges are rounded at their own magnitude
   and not against the library's set-up or the sends. Print the
   returned offsets, every counter's bits after each copy, and digests
   of the staged words with their tags, of the destination buffer's
   bytes, and of L1/L2 residency of every line the view touches. *)
let parity_line spec (cost_name, cost) strategy dir =
  let soc = Soc.create ~cost () in
  let device, recorded = tagging_device () in
  let engine =
    Soc.attach_engine soc ~dma_id:0 ~device ~in_capacity_words:512 ~out_capacity_words:16
  in
  let lib = Dma_library.init soc ~dma_id:0 ~strategy in
  let view = parity_view soc.Soc.memory spec in
  let buf = view.Memref_view.buf in
  let n = Memref_view.num_elements view in
  let data = Array.init n (fun i -> float_of_int ((i * 13) mod 17) -. 5.25) in
  let nexts = ref [] and counters = ref [] in
  for _ = 1 to 2 do
    Perf_counters.reset soc.Soc.counters;
    (match dir with
    | `To_dma ->
      let offset = Dma_library.stage_literal lib Isa.cv_patch ~offset:0 in
      nexts := Dma_library.copy_to_dma_region_with lib strategy view ~offset :: !nexts
    | `Store -> Dma_library.copy_from_data_with lib strategy view ~accumulate:false data
    | `Add -> Dma_library.copy_from_data_with lib strategy view ~accumulate:true data);
    counters :=
      String.concat ","
        (List.map
           (fun (_, v) -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
           (Perf_counters.fields soc.Soc.counters))
      :: !counters;
    if dir = `To_dma then Dma_engine.send_staged engine
  done;
  let staged =
    List.concat_map
      (fun (inst, v) -> [ (if inst then 1L else 0L); Int64.bits_of_float v ])
      (recorded ())
  in
  let resident =
    List.init (Array.length buf.Sim_memory.data) (fun i ->
        let addr = Sim_memory.addr_of buf i in
        let bit level = if Cache.resident soc.Soc.cache ~level addr then 1L else 0L in
        Int64.logor (bit 1) (Int64.shift_left (bit 2) 1))
  in
  let name, _, _, _, _ = spec in
  Printf.sprintf "%s %s %s %s next=%s counters=%s staged=%Lx dest=%Lx resident=%Lx" name
    cost_name
    (Dma_library.strategy_to_string strategy)
    (match dir with `To_dma -> "to_dma" | `Store -> "store" | `Add -> "add")
    (String.concat "," (List.rev_map string_of_int !nexts))
    (String.concat ";" (List.rev !counters))
    (fnv_words staged)
    (fnv_words (float_bits (Array.to_list buf.Sim_memory.data)))
    (fnv_words resident)

let test_copy_parity_golden () =
  let was_enabled = Metrics.enabled Metrics.default in
  Metrics.disable Metrics.default;
  let lines =
    List.concat_map
      (fun spec ->
        List.concat_map
          (fun cost ->
            List.concat_map
              (fun strategy ->
                List.map (parity_line spec cost strategy) [ `To_dma; `Store; `Add ])
              strategies)
          [ ("default", Cost_model.default); ("ragged", ragged_cost) ])
      parity_views
  in
  if was_enabled then Metrics.enable Metrics.default;
  let fresh = String.concat "\n" lines ^ "\n" in
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "copy_parity.txt") In_channel.input_all
  in
  if fresh <> golden then begin
    Out_channel.with_open_bin "copy_parity.fresh.txt" (fun oc ->
        Out_channel.output_string oc fresh);
    Alcotest.(check string) "copies match golden/copy_parity.txt" golden fresh
  end

(* The CPU reference kernels, pinned the same way: every counter's bits
   after each of two runs (the second meets a warm cache and
   accumulates into the first's output), and a digest of the output
   buffer's bytes. Operands are [(dims, offsets, sizes, step)] as in
   {!parity_views}; the strided shapes slice larger buffers and step the
   innermost dim of one operand by 2. *)
let cpu_parity_cases =
  let v dims offsets sizes step = ("", dims, offsets, sizes, step) in
  let mm name kernel =
    let run soc = function [ a; b; c ] -> kernel soc ~a ~b ~c | _ -> () in
    [
      ( name ^ " 5x7x3 whole",
        [ v [ 5; 7 ] [ 0; 0 ] [ 5; 7 ] 1; v [ 7; 3 ] [ 0; 0 ] [ 7; 3 ] 1;
          v [ 5; 3 ] [ 0; 0 ] [ 5; 3 ] 1 ],
        run );
      ( name ^ " 9x5x7 strided",
        [ v [ 11; 8 ] [ 1; 2 ] [ 9; 5 ] 1; v [ 6; 7 ] [ 1; 0 ] [ 5; 7 ] 2;
          v [ 10; 9 ] [ 1; 1 ] [ 9; 7 ] 1 ],
        run );
    ]
  in
  let conv name stride out_whole out_strided =
    let run soc = function
      | [ input; filter; output ] -> Cpu_reference.conv2d ~stride soc ~input ~filter ~output
      | _ -> ()
    in
    [
      ( name ^ " whole",
        [ v [ 1; 3; 7; 6 ] [ 0; 0; 0; 0 ] [ 1; 3; 7; 6 ] 1;
          v [ 2; 3; 3; 2 ] [ 0; 0; 0; 0 ] [ 2; 3; 3; 2 ] 1; out_whole ],
        run );
      ( name ^ " strided",
        [ v [ 2; 4; 8; 7 ] [ 1; 1; 1; 0 ] [ 1; 3; 7; 6 ] 2;
          v [ 3; 3; 3; 2 ] [ 1; 0; 0; 0 ] [ 2; 3; 3; 2 ] 1; out_strided ],
        run );
    ]
  in
  List.concat
    [
      mm "matmul" Cpu_reference.matmul;
      mm "matmul_optimized" (fun soc ~a ~b ~c ->
          Cpu_reference.matmul_optimized soc ~a ~b ~c ());
      mm "matmul_optimized sample_rows=2" (fun soc ~a ~b ~c ->
          Cpu_reference.matmul_optimized soc ~a ~b ~c ~sample_rows:2 ());
      conv "conv2d stride=1" 1
        (v [ 1; 2; 5; 5 ] [ 0; 0; 0; 0 ] [ 1; 2; 5; 5 ] 1)
        (v [ 1; 3; 6; 6 ] [ 0; 1; 1; 0 ] [ 1; 2; 5; 5 ] 1);
      conv "conv2d stride=2" 2
        (v [ 1; 2; 3; 3 ] [ 0; 0; 0; 0 ] [ 1; 2; 3; 3 ] 1)
        (v [ 1; 3; 4; 4 ] [ 0; 1; 1; 1 ] [ 1; 2; 3; 3 ] 1);
    ]

let cpu_parity_line (name, specs, run) (cost_name, cost) =
  let soc = Soc.create ~cost () in
  let views =
    List.mapi (fun k spec -> parity_view ~salt:(37 + (4 * k)) soc.Soc.memory spec) specs
  in
  let counters =
    List.init 2 (fun _ ->
        Perf_counters.reset soc.Soc.counters;
        run soc views;
        String.concat ","
          (List.map
             (fun (_, v) -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
             (Perf_counters.fields soc.Soc.counters)))
  in
  let out = (List.nth views (List.length views - 1)).Memref_view.buf in
  Printf.sprintf "%s %s counters=%s out=%Lx" name cost_name (String.concat ";" counters)
    (fnv_words (float_bits (Array.to_list out.Sim_memory.data)))

let test_cpu_reference_parity_golden () =
  let fresh =
    String.concat "\n"
      (List.concat_map
         (fun case ->
           List.map (cpu_parity_line case)
             [ ("default", Cost_model.default); ("ragged", ragged_cost) ])
         cpu_parity_cases)
    ^ "\n"
  in
  let golden =
    In_channel.with_open_bin
      (Filename.concat "golden" "cpu_reference_parity.txt")
      In_channel.input_all
  in
  if fresh <> golden then begin
    Out_channel.with_open_bin "cpu_reference_parity.fresh.txt" (fun oc ->
        Out_channel.output_string oc fresh);
    Alcotest.(check string) "kernels match golden/cpu_reference_parity.txt" golden fresh
  end

(* ------------------------------------------------------------------ *)
(* Messages that must stay byte-identical                              *)
(* ------------------------------------------------------------------ *)

let failure_of f =
  match f () with exception Failure msg -> msg | _ -> "(no failure)"

let consume (dev : Accel_device.t) words =
  dev.Accel_device.consume (Axi_word.of_words words) { Accel_device.accel_cycles = 0.0 }

let test_decode_messages () =
  let check = Alcotest.(check string) in
  let v3 () = Accel_matmul.create ~version:Accel_matmul.V3 ~size:2 () in
  check "instruction expected, data found"
    "AXI stream desync: expected instruction, got data 2.5"
    (failure_of (fun () -> consume (v3 ()) [| Axi_word.Data 2.5 |]));
  check "data expected, instruction found"
    "AXI stream desync: expected data, got instruction 0x7"
    (failure_of (fun () ->
         consume (v3 ())
           Axi_word.[| Inst Isa.mm_load_a; Data 1.0; Inst 7; Data 2.0; Data 3.0 |]));
  let v4 () = Accel_matmul.create ~version:Accel_matmul.V4 ~size:16 () in
  check "v4_16 payload truncated" "v4_16 accelerator: truncated transaction"
    (failure_of (fun () -> consume (v4 ()) Axi_word.[| Inst Isa.mm_load_a; Data 1.0 |]));
  check "v4_16 operand truncated" "v4_16 accelerator: truncated transaction"
    (failure_of (fun () -> consume (v4 ()) Axi_word.[| Inst Isa.mm_set_tm |]));
  let conv () =
    let dev = Accel_conv.create () in
    consume dev Axi_word.[| Inst Isa.cv_set_fhw; Inst 1; Inst Isa.cv_set_ic; Inst 2 |];
    dev
  in
  check "conv payload truncated" "conv accelerator: truncated transaction"
    (failure_of (fun () -> consume (conv ()) Axi_word.[| Inst Isa.cv_load_w; Data 1.0 |]));
  check "conv operand truncated" "conv accelerator: truncated transaction"
    (failure_of (fun () -> consume (conv ()) Axi_word.[| Inst Isa.cv_set_stride |]))

(* The tag check runs eight words at a time: a desync past the first
   eight still fails on the first instruction word, after delivering
   the words before it. *)
let test_read_data_stops_at_instruction () =
  let words =
    Array.init 20 (fun i ->
        if i = 13 then Axi_word.Inst 9 else Axi_word.Data (float_of_int i))
  in
  let dst = Array.make 20 (-1.0) in
  Alcotest.(check string)
    "desync message" "AXI stream desync: expected data, got instruction 0x9"
    (failure_of (fun () -> Axi_word.read_data ~who:"t" (Axi_word.of_words words) dst 20));
  Alcotest.(check (array (float 0.0)))
    "the 13 words before it" (Array.init 13 float_of_int) (Array.sub dst 0 13);
  Alcotest.(check (float 0.0)) "nothing after it" (-1.0) dst.(13);
  Alcotest.(check string) "truncated after 16 data words" "t: truncated transaction"
    (failure_of (fun () ->
         Axi_word.read_data ~who:"t"
           (Axi_word.of_words (Array.init 16 (fun i -> Axi_word.Data (float_of_int i))))
           dst 17))

(* The message of a copy to the DMA region of [make_view]'s view that
   fails, checking that the copy charged nothing but its call and
   staged nothing: its library's counters end as a twin's do after one
   [Soc.call_overhead]. *)
let failed_copy_message strategy make_view =
  let soc, engine, lib, _ = recording_lib ~capacity:8 strategy in
  let twin, _, _, _ = recording_lib ~capacity:8 strategy in
  Soc.call_overhead twin;
  let view = make_view soc.Soc.memory in
  let message =
    match Dma_library.copy_to_dma_region_with lib strategy view ~offset:0 with
    | exception (Failure msg | Invalid_argument msg) -> msg
    | _ -> "(no failure)"
  in
  let fields soc = Perf_counters.fields soc.Soc.counters in
  Alcotest.(check (list (pair string (float 0.0))))
    "counters: only the call is charged" (fields twin) (fields soc);
  Alcotest.(check int) "nothing staged" 0 (Dma_engine.staged_high_water engine);
  message

let test_overflow_messages () =
  let check = Alcotest.(check string) in
  let src = { Sim_memory.base = 0; data = Array.make 8 1.0; label = "src" } in
  let _, engine, _, _ = recording_lib ~capacity:8 Dma_library.Generic in
  let overflow at = Printf.sprintf "DMA input region overflow: offset %d, capacity 8" at in
  check "stage" (overflow 8)
    (failure_of (fun () -> Dma_engine.stage engine ~offset:8 (Axi_word.Inst 0)));
  check "stage_inst" (overflow (-1))
    (failure_of (fun () -> Dma_engine.stage_inst engine ~offset:(-1) 0));
  check "rows crossing the end" (overflow 8)
    (failure_of (fun () ->
         Dma_engine.stage_rows engine ~offset:6 src 0 ~len:2 ~count:2 ~stride:3 ~rows:1
           ~row_stride:0));
  (* a run reports the first offset word-by-word staging would reject *)
  check "run crossing the end" (overflow 8)
    (failure_of (fun () -> stage_run engine ~offset:5 src 0 6));
  check "run past the end" (overflow 11)
    (failure_of (fun () -> stage_run engine ~offset:11 src 0 2));
  check "run before the start" (overflow (-2))
    (failure_of (fun () -> stage_run engine ~offset:(-2) src 0 3));
  List.iter
    (fun strategy ->
      let soc, _, lib, _ = recording_lib ~capacity:8 strategy in
      let buf = Sim_memory.alloc soc.Soc.memory ~label:"tile" 6 in
      let view = Memref_view.of_buffer buf [ 2; 3 ] in
      check
        ("library copy, " ^ Dma_library.strategy_to_string strategy)
        (overflow 8)
        (failure_of (fun () ->
             ignore (Dma_library.copy_to_dma_region_with lib strategy view ~offset:5)));
      (* a [2 x 2 x 3] tile of a [2 x 4 x 6] buffer is one block of two
         rows of two runs of 3, 12 words: its first row fits *)
      check
        ("library copy of a block crossing the end, " ^ Dma_library.strategy_to_string strategy)
        (overflow 8)
        (failed_copy_message strategy (fun mem ->
             Memref_view.subview
               (Memref_view.of_buffer (Sim_memory.alloc mem ~label:"planes" 48) [ 2; 4; 6 ])
               ~offsets:[ 0; 1; 2 ] ~sizes:[ 2; 2; 3 ]));
      (* a hand-built 6-element view of a 4-element buffer *)
      check
        ("library copy reaching outside its buffer, " ^ Dma_library.strategy_to_string strategy)
        "Sim_memory.addr_of: index 4 out of bounds for tile (4 elements)"
        (failed_copy_message strategy (fun mem ->
             let view = Memref_view.of_buffer (Sim_memory.alloc mem ~label:"tile" 4) [ 4 ] in
             { view with Memref_view.shape = [ 6 ] })))
    strategies

(* ------------------------------------------------------------------ *)
(* Cache levels and their cost                                         *)
(* ------------------------------------------------------------------ *)

let cold_access_cycles geometries =
  let soc = Soc.create ~cache_geometries:geometries () in
  Soc.charge_access soc 0x1000_0000;
  soc.Soc.counters.Perf_counters.cycles

let test_cache_level_costs () =
  let check = Alcotest.(check (float 0.0)) in
  check "one level: L1 lookup + DRAM" 61.0 (cold_access_cycles [ Cache.cortex_a9_l1 ]);
  check "two levels: L1 + L2 lookups + DRAM" 69.0
    (cold_access_cycles [ Cache.cortex_a9_l1; Cache.cortex_a9_l2 ]);
  (* warm: an L2 hit pays no DRAM *)
  let soc = Soc.create () in
  let l1_set_stride = Cache.cortex_a9_l1.Cache.size_bytes / 4 in
  List.iter
    (fun k -> Soc.charge_access soc (0x1000_0000 + (k * l1_set_stride)))
    [ 0; 1; 2; 3; 4 ];
  let before = soc.Soc.counters.Perf_counters.cycles in
  Soc.charge_access soc 0x1000_0000;
  check "L2 hit" 9.0 (soc.Soc.counters.Perf_counters.cycles -. before)

let tests =
  [
    Alcotest.test_case "alloc: Cache.access allocates nothing" `Quick
      test_cache_access_allocates_nothing;
    Alcotest.test_case "alloc: Soc.charge_access allocates nothing" `Quick
      test_charge_access_allocates_nothing;
    Alcotest.test_case "alloc: staging and sending is O(1) in the payload" `Quick
      test_send_allocation_is_constant;
    Alcotest.test_case "alloc: manual conv under one word per DMA word" `Quick
      test_manual_conv_allocation_per_dma_word;
    Alcotest.test_case "alloc: blocking matmul words per DMA transaction" `Quick
      test_blocking_matmul_words_per_transaction;
    Alcotest.test_case "alloc: double-buffered matmul words per DMA transaction" `Quick
      test_double_buffered_matmul_words_per_transaction;
    Alcotest.test_case "alloc: Memref_view.iter_runs allocates nothing" `Quick
      test_iter_runs_allocates_nothing;
    Alcotest.test_case "alloc: every copy strategy and direction allocates nothing" `Quick
      test_copies_allocate_nothing;
    Alcotest.test_case "alloc: the CPU reference kernels allocate nothing" `Quick
      test_cpu_reference_allocates_nothing;
    Alcotest.test_case "alloc: exact minor words of a small manual and generated conv run"
      `Quick test_conv_minor_words_pinned;
    QCheck_alcotest.to_alcotest prop_copies_stage_the_view;
    QCheck_alcotest.to_alcotest prop_copies_in_write_the_view;
    QCheck_alcotest.to_alcotest prop_fifo_is_a_queue;
    Alcotest.test_case "parity: every copy's counters, words, bytes and cache lines" `Quick
      test_copy_parity_golden;
    Alcotest.test_case "parity: every CPU reference kernel's counters and output" `Quick
      test_cpu_reference_parity_golden;
    Alcotest.test_case "messages: decode desync and truncation" `Quick test_decode_messages;
    Alcotest.test_case "messages: desync found past the first eight tags" `Quick
      test_read_data_stops_at_instruction;
    Alcotest.test_case "messages: input region overflow" `Quick test_overflow_messages;
    Alcotest.test_case "cost: L2 only if present, DRAM on last-level miss" `Quick
      test_cache_level_costs;
  ]
