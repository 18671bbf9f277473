(* Host-time spans around the harness's calls into the libraries under
   test, recorded on a [Trace.t] whose clock is host time.

   A span's category is its name, "<layer>.<what>", and every span
   boundary snapshots host nanoseconds and minor-heap words, so
   [Perf_report.phase_breakdown] gives each layer's self time and self
   allocation (span minus child spans). The harness is single-threaded,
   so children are disjoint sub-intervals of their parent and the
   subtraction is exact. Time outside every span lands in its "host"
   phase. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let enable ?(clock_ns = now_ns) ?(words = Gc.minor_words) t =
  Trace.enable t
    ~clock:(fun () -> clock_ns () /. 1e3) (* Chrome timestamps are microseconds *)
    ~snapshot:(fun () -> [ ("ns", clock_ns ()); ("words", words ()) ])

(* A disabled tracer costs one branch: untraced passes measure the
   program, not the tracer. *)
let with_span t ~pass ~unit_id name f =
  if Trace.enabled t then
    Trace.with_span t ~cat:name
      ~args:[ ("pass", Trace.Int pass); ("unit", Trace.Str unit_id) ]
      name f
  else f ()

type self = { name : string; self_ns : float; self_words : float; calls : int }

(* Self time and allocation per span name over [events], which took
   [ns] and [words] in all; the "host" row is what no span covers. *)
let self_times ~ns ~words events =
  Perf_report.phase_breakdown ~total:[ ("ns", ns); ("words", words) ] events
  |> List.map (fun (ph : Perf_report.phase) ->
         {
           name = ph.ph_name;
           self_ns = Perf_report.phase_field ph "ns";
           self_words = Perf_report.phase_field ph "words";
           calls = ph.ph_count;
         })

(* Chrome/Perfetto events of one workload, as process [pid]. *)
let chrome_events ~pid ~workload events =
  let retag = function
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> if k = "pid" then (k, Json.Int pid) else (k, v)) fields)
    | ev -> ev
  in
  let spans =
    Json.to_list (Json.member "traceEvents" (Chrome_trace.to_json events))
    |> List.filter (fun ev -> Json.to_str (Json.member "ph" ev) <> "M")
  in
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String workload) ]);
    ]
  :: List.map retag spans

let chrome_document events =
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

(* Re-read an exported trace: within each process every E closes the
   innermost open B of the same name and nothing is left open. Returns
   the number of complete spans. *)
let check_chrome json =
  let stacks = Hashtbl.create 8 in
  let step count ev =
    let pid = Json.to_int (Json.member "pid" ev) in
    let name = Json.to_str (Json.member "name" ev) in
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks pid) in
    match (Json.to_str (Json.member "ph" ev), stack) with
    | "M", _ -> count
    | "B", _ ->
      Hashtbl.replace stacks pid (name :: stack);
      count
    | "E", top :: rest when top = name ->
      Hashtbl.replace stacks pid rest;
      count + 1
    | "E", top :: _ -> failwith (Printf.sprintf "%s closes while %s is open" name top)
    | "E", [] -> failwith (Printf.sprintf "%s closes with nothing open" name)
    | ph, _ -> failwith (Printf.sprintf "%s: unexpected phase %S" name ph)
  in
  match List.fold_left step 0 (Json.to_list (Json.member "traceEvents" json)) with
  | count -> (
    match Hashtbl.fold (fun _ stack acc -> stack @ acc) stacks [] with
    | [] -> Ok count
    | open_ :: _ -> Error (Printf.sprintf "%s is never closed" open_))
  | exception Failure msg -> Error msg
  | exception Json.Type_error msg -> Error msg
