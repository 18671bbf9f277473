let sim_pid = 1
let compiler_pid = 2

let arg_to_json = function
  | Trace.Str s -> Json.String s
  | Trace.Num f -> Json.Float f
  | Trace.Int i -> Json.Int i
  | Trace.Bool b -> Json.Bool b

let event_to_json ~scale (e : Trace.event) =
  let on_compile_track =
    e.Trace.ev_track = Trace.compile_track || e.Trace.ev_track = Trace.tuner_track
  in
  let pid = if on_compile_track then compiler_pid else sim_pid in
  let ts = if on_compile_track then e.ev_ts else e.ev_ts /. scale in
  let ph, extra =
    match e.ev_kind with
    | Trace.Begin -> ("B", [])
    | Trace.End -> ("E", [])
    | Trace.Instant -> ("i", [ ("s", Json.String "t") ])
    | Trace.Complete dur ->
      ("X", [ ("dur", Json.Float (if on_compile_track then dur else dur /. scale)) ])
    | Trace.Counter _ -> ("C", [])
    | Trace.Flow_start id ->
      ("s", [ ("id", Json.Int id); ("bp", Json.String "e") ])
    | Trace.Flow_finish id ->
      ("f", [ ("id", Json.Int id); ("bp", Json.String "e") ])
  in
  Json.Obj
    ([
       ("name", Json.String e.ev_name);
       ("cat", Json.String e.ev_cat);
       ("ph", Json.String ph);
       ("ts", Json.Float ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int e.ev_track);
     ]
    @ extra
    @
    (* a counter sample's value is its args payload — Perfetto plots
       every numeric key of a "C" event as one series of the track *)
    let args =
      match e.ev_kind with
      | Trace.Counter v -> e.ev_args @ [ ("value", Trace.Num v) ]
      | _ -> e.ev_args
    in
    match args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args)) ])

let metadata name pid tid value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let preamble =
  [
    metadata "process_name" sim_pid 0 "simulated SoC";
    metadata "process_name" compiler_pid 0 "axi4mlir compiler";
    metadata "thread_name" sim_pid Trace.host_track "host CPU";
    metadata "thread_name" sim_pid Trace.accel_track "accelerator";
    metadata "thread_name" sim_pid Trace.dma_track "DMA engine";
    metadata "thread_name" sim_pid Trace.critpath_track "critical path";
    metadata "thread_name" compiler_pid Trace.compile_track "pass pipeline";
    metadata "thread_name" compiler_pid Trace.tuner_track "autotuner";
  ]

let to_json ?(cpu_freq_mhz = 1.0) ?(track_names = []) events =
  let scale = if cpu_freq_mhz > 0.0 then cpu_freq_mhz else 1.0 in
  let extra_tracks =
    List.map (fun (tid, name) -> metadata "thread_name" sim_pid tid name) track_names
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (preamble @ extra_tracks @ List.map (event_to_json ~scale) events) );
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string ?cpu_freq_mhz ?track_names events =
  Json.to_string ~indent:1 (to_json ?cpu_freq_mhz ?track_names events)

let write_file ?cpu_freq_mhz ?track_names path events =
  Json.write_file ~indent:1 path (to_json ?cpu_freq_mhz ?track_names events)
