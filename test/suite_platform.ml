(* The platform subsystem: axi4mlir-platform-v1 round trips and golden
   bytes, field-qualified validation errors, the resource-model
   calibration pins, the heterogeneous serving bridge (per-instance
   oracles, the DMA transfer scale, homogeneous bit-identity) and the
   QCheck search properties (monotone resource totals; the search
   never returns an over-budget or dominated platform). *)

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let err name = function
  | Ok _ -> Alcotest.fail (name ^ ": expected Error, got Ok")
  | Error msg -> msg

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains name msg needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S mentions %S" name msg needle)
    true (contains msg needle)

let hetero () = ok (Platform_ir.find_preset "hetero-v3v4")

(* ------------------------------------------------------------------ *)
(* The axi4mlir-platform-v1 artifact                                   *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  List.iter
    (fun (name, p) ->
      let back = ok (Platform_ir.of_json_result (Platform_ir.to_json p)) in
      Alcotest.(check bool) (name ^ " round-trips") true (back = p))
    (("homogeneous", Platform_ir.homogeneous ~accels:3 ()) :: Platform_ir.presets);
  (* a capacity override survives the trip too *)
  let p =
    {
      (hetero ()) with
      Platform_ir.pf_instances =
        [
          {
            Platform_ir.in_id = "acc0";
            in_engine = "v4_16";
            in_capacity_elems = Some 1024;
          };
        ];
    }
  in
  let back = ok (Platform_ir.of_json_result (Platform_ir.to_json p)) in
  Alcotest.(check bool) "capacity override round-trips" true (back = p)

(* Regenerate (only after a deliberate, add-only schema change) with:
     dune exec bin/axi4mlir_config.exe -- --platform-preset hetero-v3v4 \
       -o test/golden/platform_hetero.json *)
let test_golden_bytes () =
  let ic = open_in_bin (Filename.concat "golden" "platform_hetero.json") in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fresh = Json.to_string ~indent:1 (Platform_ir.to_json (hetero ())) ^ "\n" in
  Alcotest.(check string) "platform artifact matches the golden file" golden fresh

let test_schema_floor () =
  (* the add-only compatibility floor: these fields must stay *)
  let doc = Platform_ir.to_json (hetero ()) in
  Alcotest.(check string) "schema string" "axi4mlir-platform-v1"
    Json.(to_str (member "schema" doc));
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (Json.member_opt field doc <> None))
    [ "schema"; "name"; "dma_channels"; "axi_beat_bytes"; "instances" ];
  let first = List.hd Json.(to_list (member "instances" doc)) in
  (* capacity_elems is Null when no override is set, so check key
     presence, not member_opt (which folds Null into absence) *)
  let has_key field =
    match first with Json.Obj kvs -> List.mem_assoc field kvs | _ -> false
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("instance " ^ field ^ " present") true
        (has_key field))
    [ "id"; "engine"; "capacity_elems" ];
  (* and the rendering must re-parse *)
  let reparsed = Json.of_string (Json.to_string ~indent:1 doc) in
  Alcotest.(check string) "artifact re-parses" "axi4mlir-platform-v1"
    Json.(to_str (member "schema" reparsed))

let test_presets () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check string) "preset name matches key" name p.Platform_ir.pf_name;
      ok (Platform_ir.validate p))
    Platform_ir.presets;
  let msg = err "unknown preset" (Platform_ir.find_preset "nosuch") in
  check_contains "unknown preset" msg "pynq-2xv4"

(* ------------------------------------------------------------------ *)
(* Validation: structured, field-qualified errors                      *)
(* ------------------------------------------------------------------ *)

let instance ?capacity id engine =
  { Platform_ir.in_id = id; in_engine = engine; in_capacity_elems = capacity }

let platform ?(name = "t") ?(channels = 1) ?(beat = 4) instances =
  {
    Platform_ir.pf_name = name;
    pf_instances = instances;
    pf_dma_channels = channels;
    pf_axi_beat_bytes = beat;
  }

let test_validation_errors () =
  let cases =
    [
      ( "unknown engine",
        platform [ instance "acc0" "v9_99" ],
        "platform.instances[0].engine" );
      ( "conv engine in a slot",
        platform [ instance "acc0" "conv2d" ],
        "platform.instances[0].engine" );
      ( "zero channels",
        platform ~channels:0 [ instance "acc0" "v4_16" ],
        "platform.dma_channels" );
      ( "duplicate ids",
        platform [ instance "acc0" "v4_16"; instance "acc0" "v3_16" ],
        "platform.instances[1].id" );
      ( "bad beat width",
        platform ~beat:5 [ instance "acc0" "v4_16" ],
        "platform.axi_beat_bytes" );
      ("no instances", platform [], "platform.instances");
      ( "non-positive capacity",
        platform [ instance ~capacity:0 "acc0" "v4_16" ],
        "capacity override must be positive" );
    ]
  in
  List.iter
    (fun (name, p, field) ->
      check_contains name (err name (Platform_ir.validate p)) field)
    cases

let test_of_json_errors () =
  let wrong_schema =
    Json.Obj [ ("schema", Json.String "axi4mlir-platform-v0") ]
  in
  check_contains "wrong schema"
    (err "wrong schema" (Platform_ir.of_json_result wrong_schema))
    "axi4mlir-platform-v1";
  let not_an_object = Json.List [] in
  (match Platform_ir.of_json_result not_an_object with
  | Ok _ -> Alcotest.fail "non-object parsed"
  | Error _ -> ());
  (* a validation failure surfaces through the parser too *)
  let doc = Platform_ir.to_json (platform ~channels:0 [ instance "acc0" "v4_16" ]) in
  check_contains "parsed zero channels"
    (err "parsed zero channels" (Platform_ir.of_json_result doc))
    "platform.dma_channels"

let test_load_file_errors () =
  (match Platform_ir.load_file "golden/no_such_platform.json" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ());
  match Platform_ir.load_file "golden/matmul_cpu_loops.mlir" with
  | Ok _ -> Alcotest.fail "non-JSON file loaded"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The resource model: calibration pins                                *)
(* ------------------------------------------------------------------ *)

(* These pins are the documented constants of Platform_cost applied to
   the committed presets. They only move when the resource model is
   changed deliberately — re-derive by hand from the .mli table. *)
let test_calibration_pins () =
  let close = Alcotest.float 1e-9 in
  List.iter
    (fun (engine, expect) ->
      let config = ok (Platform_ir.engine_config (instance "x" engine)) in
      Alcotest.check close (engine ^ " engine units") expect
        (Platform_cost.engine_units config))
    [ ("v1_4", 40.09375); ("v2_8", 91.575); ("v3_16", 307.1); ("v4_16", 368.0) ];
  List.iter
    (fun (name, expect) ->
      Alcotest.check close (name ^ " resource total") expect
        (Platform_cost.resource_total_exn (ok (Platform_ir.find_preset name))))
    [ ("pynq-2xv4", 764.0); ("hetero-v3v4", 703.1); ("budget-4xv2", 406.3) ]

let prop_resource_monotone =
  (* strictly monotone in every platform dimension: more slots, more
     channels, a wider beat and a larger tile buffer all cost more *)
  QCheck.Test.make ~name:"resource total strictly monotone in every dimension"
    ~count:60
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 0 2) (int_range 0 3))
    (fun (slots, channels, beat_i, engine_i) ->
      (* QCheck shrinking may step outside int_range: clamp *)
      let slots = max 1 (min 3 slots) in
      let channels = max 1 (min 3 channels) in
      let beat_i = max 0 (min 2 beat_i) in
      let engine_i = max 0 (min 3 engine_i) in
      let beat = List.nth Platform_ir.beat_widths beat_i in
      let engine = List.nth [ "v1_4"; "v2_8"; "v3_16"; "v4_16" ] engine_i in
      let base =
        platform ~channels ~beat
          (List.init slots (fun i ->
               instance (Printf.sprintf "acc%d" i) engine))
      in
      let total p = Platform_cost.resource_total_exn p in
      let grown =
        [
          {
            base with
            Platform_ir.pf_instances =
              base.Platform_ir.pf_instances
              @ [ instance (Printf.sprintf "acc%d" slots) engine ];
          };
          { base with Platform_ir.pf_dma_channels = channels + 1 };
        ]
        @ (if beat < 16 then
             [
               {
                 base with
                 Platform_ir.pf_axi_beat_bytes =
                   List.nth Platform_ir.beat_widths (beat_i + 1);
               };
             ]
           else [])
      in
      (* capacity: compare two overrides inside the engine's own limit
         (Accel_config.validate rejects anything above the preset) *)
      let cap = (ok (Platform_ir.engine_config (instance "x" engine)))
                  .Accel_config.buffer_capacity_elems
      in
      let with_cap c =
        {
          base with
          Platform_ir.pf_instances =
            instance ~capacity:c "cap" engine
            :: List.tl base.Platform_ir.pf_instances;
        }
      in
      List.for_all (fun g -> total g > total base) grown
      && total (with_cap cap) > total (with_cap (max 1 (cap / 2))))

(* ------------------------------------------------------------------ *)
(* The heterogeneous serving bridge                                    *)
(* ------------------------------------------------------------------ *)

let models () = ok (Serve_cost.models_of_specs [ "matmul:16,16,16" ])

let requests ?(count = 8) () =
  ok
    (Serve_request.generate
       {
         Serve_request.st_seed = 7;
         st_count = count;
         st_mean_gap = 40000.0;
         st_models = [ "matmul:16,16,16" ];
       })

let test_dma_scale () =
  let close = Alcotest.float 1e-9 in
  (* one channel per instance on the baseline beat: exactly 1 *)
  Alcotest.check close "identity scale" 1.0
    (Platform_serve.dma_scale (Platform_ir.homogeneous ~accels:3 ()));
  (* a wider beat moves more bytes per cycle *)
  Alcotest.check close "beat 8 halves the transfer" 0.5
    (Platform_serve.dma_scale
       (platform ~channels:1 ~beat:8 [ instance "acc0" "v4_16" ]));
  (* more instances than channels serialise on the shared DMA engines *)
  Alcotest.check close "2 slots on 1 channel doubles it" 2.0
    (Platform_serve.dma_scale
       (platform ~channels:1 ~beat:4
          [ instance "acc0" "v4_16"; instance "acc1" "v4_16" ]))

(* (hits, misses) of an oracle's memo *)
let check_memo name expected oracle =
  Alcotest.(check (pair int int)) name expected (Serve_cost.memo_stats oracle)

let test_hetero_fleet () =
  let p = hetero () in
  let oracle = Serve_cost.create (models ()) in
  let fleet = Platform_serve.create ~platform:p oracle in
  Alcotest.(check (list string))
    "engines in instance order" [ "v4_16"; "v3_16" ]
    (Platform_serve.engines fleet);
  let s0 = Platform_serve.service_at fleet ~accel:0 "matmul:16,16,16" ~batch:1 in
  let s1 = Platform_serve.service_at fleet ~accel:1 "matmul:16,16,16" ~batch:1 in
  Alcotest.(check bool) "per-instance service times differ" true (s0 <> s1);
  check_memo "one measurement per distinct engine" (0, 2) oracle;
  match Platform_serve.service_at fleet ~accel:9 "matmul:16,16,16" ~batch:1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "out-of-range instance index accepted"

let test_shared_memo () =
  let model = "matmul:16,16,16" in
  (* same-engine slots share one measurement *)
  let oracle = Serve_cost.create (models ()) in
  let fleet =
    Platform_serve.create ~platform:(Platform_ir.homogeneous ~accels:3 ()) oracle
  in
  List.iter
    (fun accel -> ignore (Platform_serve.service_at fleet ~accel model ~batch:1))
    [ 0; 1; 2 ];
  check_memo "homogeneous slots: 1 miss, 2 hits" (2, 1) oracle;
  (* predictions depend on the engine, so they are keyed by it *)
  let oracle = Serve_cost.create (models ()) in
  ignore (Serve_cost.predict oracle model);
  ignore
    (Serve_cost.predict
       ~engine:(Presets.matmul ~version:Accel_matmul.V3 ~size:16 ())
       oracle model);
  check_memo "predict on two engines misses twice" (0, 2) oracle;
  (* a whole search shares one oracle: the quick space holds two
     engines, so every candidate after the first per engine hits *)
  let stream =
    ok
      (Serve_request.generate
         {
           Serve_request.st_seed = 1;
           st_count = 12;
           st_mean_gap = Cost_model.default.Cost_model.cpu_freq_mhz *. 1e6 /. 1000.0;
           st_models = [ model ];
         })
  in
  let measure =
    Platform_search.default_measure ~policy:Serve_policy.Fifo ~models:(models ())
      ~requests:stream ()
  in
  Metrics.enable Metrics.default;
  Metrics.reset Metrics.default;
  ignore
    (ok (Platform_search.search ~area_budget:800.0 ~measure Platform_search.quick_space));
  let hits = Metrics.counter_value "serve.oracle_hits"
  and misses = Metrics.counter_value "serve.oracle_misses" in
  Metrics.disable Metrics.default;
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "search over the quick space: 250 hits, 2 misses" (250.0, 2.0) (hits, misses)

let test_homogeneous_bit_identity () =
  let reqs = requests () in
  let fleet =
    Platform_serve.create
      ~platform:(Platform_ir.homogeneous ~accels:2 ())
      (Serve_cost.create (models ()))
  in
  let via_platform = ok (Platform_serve.run ~policy:Serve_policy.Fifo fleet reqs) in
  let oracle = Serve_cost.create (models ()) in
  let via_accels =
    ok
      (Serve_sim.run
         ~service:(Serve_cost.service oracle)
         ~predict:(Serve_cost.predict oracle)
         {
           Serve_sim.sp_accels = 2;
           sp_policy = Serve_policy.Fifo;
           sp_queue_cap = None;
           sp_batch_max = 1;
         }
         reqs)
  in
  Alcotest.(check bool)
    "homogeneous platform run is bit-identical to --accels 2" true
    (via_platform = via_accels)

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

(* A synthetic serving oracle: deterministic, cheap, and shaped like
   the real one (more PEs -> more throughput, diminishing; fewer
   channels -> worse p99) so the search exercises its real logic
   without paying for simulation. *)
let synthetic_measure (p : Platform_ir.t) =
  let pes =
    List.fold_left
      (fun acc inst ->
        match Platform_ir.engine_config inst with
        | Ok { Accel_config.engine = Accel_config.Matmul_engine (_, size); _ } ->
          acc +. float_of_int (size * size)
        | Ok _ | Error _ -> acc)
      0.0 p.Platform_ir.pf_instances
  in
  let scale = Platform_serve.dma_scale p in
  let rps = 100.0 +. (pes /. (0.5 +. (0.5 *. scale))) in
  let p99 = 1e9 /. rps in
  Some (rps, p99)

let search_space =
  {
    Platform_search.ss_engines = [ "v1_4"; "v2_8"; "v3_16" ];
    ss_max_instances = 2;
    ss_channels = [ 1; 2 ];
    ss_beats = [ 4; 8 ];
  }

let test_enumerate () =
  let all = ok (Platform_search.enumerate search_space) in
  (* multisets of size 1..2 over 3 engines = 3 + 6 = 9; x2 channels x2 beats *)
  Alcotest.(check int) "candidate count" 36 (List.length all);
  List.iter (fun p -> ok (Platform_ir.validate p)) all;
  let msg =
    err "bad space"
      (Platform_search.enumerate
         { search_space with Platform_search.ss_engines = [ "nosuch" ] })
  in
  check_contains "bad space" msg "space.engines";
  let msg =
    err "no channels"
      (Platform_search.enumerate
         { search_space with Platform_search.ss_channels = [] })
  in
  check_contains "no channels" msg "space.channels"

let test_search_budget_errors () =
  let msg =
    err "zero budget"
      (Platform_search.search ~area_budget:0.0 ~measure:synthetic_measure
         search_space)
  in
  check_contains "zero budget" msg "positive";
  let msg =
    err "negative budget"
      (Platform_search.search ~area_budget:(-5.0) ~measure:synthetic_measure
         search_space)
  in
  check_contains "negative budget" msg "positive"

let no_point_dominated front =
  let dominated a b =
    b.Platform_search.pt_per_resource >= a.Platform_search.pt_per_resource
    && b.Platform_search.pt_p99_cycles <= a.Platform_search.pt_p99_cycles
    && (b.Platform_search.pt_per_resource > a.Platform_search.pt_per_resource
       || b.Platform_search.pt_p99_cycles < a.Platform_search.pt_p99_cycles)
  in
  List.for_all
    (fun a -> not (List.exists (fun b -> b != a && dominated a b) front))
    front

let prop_search_respects_budget =
  QCheck.Test.make
    ~name:"search never returns an over-budget or dominated platform" ~count:30
    QCheck.(int_range 50 1200)
    (fun budget_i ->
      let budget = float_of_int budget_i in
      match
        Platform_search.search ~area_budget:budget ~measure:synthetic_measure
          search_space
      with
      | Error _ -> budget <= 0.0
      | Ok r ->
        let within pt = pt.Platform_search.pt_resource <= budget in
        List.for_all within r.Platform_search.sr_front
        && (match r.Platform_search.sr_best with
           | None -> true
           | Some b -> within b)
        && no_point_dominated r.Platform_search.sr_front
        && r.Platform_search.sr_over_budget
           + List.length r.Platform_search.sr_front
           <= r.Platform_search.sr_space)

let test_search_end_to_end () =
  (* the baseline is over this budget; a cheaper platform still wins *)
  let r =
    ok
      (Platform_search.search ~area_budget:400.0 ~measure:synthetic_measure
         search_space)
  in
  Alcotest.(check int) "space size" 36 r.Platform_search.sr_space;
  Alcotest.(check bool) "budget pruned something" true
    (r.Platform_search.sr_over_budget > 0);
  Alcotest.(check bool) "front is non-empty" true
    (r.Platform_search.sr_front <> []);
  Alcotest.(check bool) "baseline measured" true
    (r.Platform_search.sr_baseline <> None);
  match Platform_search.pick_winner r with
  | None -> ()
  | Some w ->
    let b = Option.get r.Platform_search.sr_baseline in
    Alcotest.(check bool) "winner beats baseline per-resource" true
      (w.Platform_search.pt_per_resource > b.Platform_search.pt_per_resource);
    Alcotest.(check bool) "winner ties-or-beats baseline p99" true
      (w.Platform_search.pt_p99_cycles <= b.Platform_search.pt_p99_cycles)

let tests =
  [
    Alcotest.test_case "artifact: presets round-trip" `Quick test_round_trip;
    Alcotest.test_case "artifact: golden platform bytes" `Quick test_golden_bytes;
    Alcotest.test_case "artifact: platform-v1 schema floor" `Quick
      test_schema_floor;
    Alcotest.test_case "presets validate and resolve" `Quick test_presets;
    Alcotest.test_case "validation: field-qualified errors" `Quick
      test_validation_errors;
    Alcotest.test_case "validation: of_json errors" `Quick test_of_json_errors;
    Alcotest.test_case "validation: load_file errors" `Quick
      test_load_file_errors;
    Alcotest.test_case "resource model: calibration pins" `Quick
      test_calibration_pins;
    QCheck_alcotest.to_alcotest prop_resource_monotone;
    Alcotest.test_case "serve bridge: dma scale" `Quick test_dma_scale;
    Alcotest.test_case "serve bridge: heterogeneous fleet" `Quick
      test_hetero_fleet;
    Alcotest.test_case "serve bridge: one memo keyed by engine" `Quick test_shared_memo;
    Alcotest.test_case "serve bridge: homogeneous bit-identity" `Quick
      test_homogeneous_bit_identity;
    Alcotest.test_case "search: enumerate" `Quick test_enumerate;
    Alcotest.test_case "search: budget must be positive" `Quick
      test_search_budget_errors;
    QCheck_alcotest.to_alcotest prop_search_respects_budget;
    Alcotest.test_case "search: end to end on a synthetic oracle" `Quick
      test_search_end_to_end;
  ]
