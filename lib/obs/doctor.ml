type diagnosis = { dg_report : Critpath.report; dg_top : Critpath.segment list }

let top_segments k segments =
  List.filter (fun sg -> Critpath.segment_cycles sg > 0.0) segments
  |> List.stable_sort (fun a b ->
         match compare (Critpath.segment_cycles b) (Critpath.segment_cycles a) with
         | 0 -> compare a.Critpath.sg_start b.Critpath.sg_start
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let diagnose ?(top_k = 5) input =
  match Critpath.analyze input with
  | Error _ as e -> e
  | Ok report -> Ok { dg_report = report; dg_top = top_segments top_k report.rp_segments }

let binding_resource dg = Critpath.resource_name dg.dg_report.Critpath.rp_binding

let speedup_ceiling dg name =
  List.find_opt (fun w -> w.Critpath.wf_name = name) dg.dg_report.Critpath.rp_whatifs
  |> Fun.flip Option.bind (fun w -> w.Critpath.wf_speedup)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pct ~of_total v = if of_total > 0.0 then 100.0 *. v /. of_total else 0.0

let render dg =
  let rp = dg.dg_report in
  let open Critpath in
  let t_end = rp.rp_makespan in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "Perf doctor: critical path through %.1f cycles" t_end;
  let binding_cycles =
    try List.assoc rp.rp_binding rp.rp_resources with Not_found -> 0.0
  in
  line "binding resource: %s (%.1f%% of the critical path — host %.1f%%, dma %.1f%%, accel %.1f%%)"
    (resource_name rp.rp_binding)
    (pct ~of_total:t_end binding_cycles)
    (pct ~of_total:t_end (try List.assoc Res_host rp.rp_resources with Not_found -> 0.0))
    (pct ~of_total:t_end (try List.assoc Res_dma rp.rp_resources with Not_found -> 0.0))
    (pct ~of_total:t_end (try List.assoc Res_accel rp.rp_resources with Not_found -> 0.0));
  line "";
  let table =
    Tabulate.create
      [ ("category", Tabulate.Left); ("cycles", Tabulate.Right); ("%", Tabulate.Right) ]
  in
  List.iter
    (fun (cat, cycles) ->
      Tabulate.add_row table
        [
          category_name cat;
          Printf.sprintf "%.1f" cycles;
          Printf.sprintf "%5.1f" (pct ~of_total:t_end cycles);
        ])
    rp.rp_attribution;
  Buffer.add_string buf "Critical-path attribution:\n";
  Buffer.add_string buf (Tabulate.render table);
  line "";
  if dg.dg_top <> [] then begin
    let ops =
      Tabulate.create
        [
          ("op", Tabulate.Left);
          ("agent", Tabulate.Left);
          ("category", Tabulate.Left);
          ("cycles", Tabulate.Right);
          ("window", Tabulate.Left);
        ]
    in
    List.iter
      (fun sg ->
        Tabulate.add_row ops
          [
            sg.sg_label;
            sg.sg_agent;
            category_name sg.sg_category;
            Printf.sprintf "%.1f" (segment_cycles sg);
            Printf.sprintf "[%.1f, %.1f]" sg.sg_start sg.sg_finish;
          ])
      dg.dg_top;
    line "Top %d critical operations:" (List.length dg.dg_top);
    Buffer.add_string buf (Tabulate.render ops);
    line ""
  end;
  line "What-if ceilings (Amdahl-style estimates):";
  List.iter
    (fun w ->
      match w.wf_speedup with
      | Some s ->
        line "  %-21s bound %.1f cycles -> at most %.2fx" w.wf_name w.wf_bound_cycles s
      | None -> line "  %-21s bound degenerate (nothing would remain)" w.wf_name)
    rp.rp_whatifs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON artifact                                                       *)
(* ------------------------------------------------------------------ *)

let segment_json (sg : Critpath.segment) =
  let open Critpath in
  Json.Obj
    [
      ("start", Json.Float sg.sg_start);
      ("finish", Json.Float sg.sg_finish);
      ("cycles", Json.Float (segment_cycles sg));
      ("category", Json.String (category_name sg.sg_category));
      ("label", Json.String sg.sg_label);
      ("agent", Json.String sg.sg_agent);
      ("bound", Json.String (bound_name sg.sg_bound));
    ]

let to_json dg =
  let rp = dg.dg_report in
  let open Critpath in
  Json.Obj
    [
      ("schema", Json.String "axi4mlir-critpath-v1");
      ("makespan_cycles", Json.Float rp.rp_makespan);
      ("host_serial_cycles", Json.Float rp.rp_host_end);
      ("binding_resource", Json.String (resource_name rp.rp_binding));
      ( "attribution",
        Json.Obj
          (List.map
             (fun (cat, c) -> (category_name cat, Json.Float c))
             rp.rp_attribution) );
      ( "resources",
        Json.Obj
          (List.map (fun (res, c) -> (resource_name res, Json.Float c)) rp.rp_resources)
      );
      ( "whatifs",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("name", Json.String w.wf_name);
                   ("bound_cycles", Json.Float w.wf_bound_cycles);
                   ( "speedup_ceiling",
                     match w.wf_speedup with
                     | Some s -> Json.Float s
                     | None -> Json.Null );
                 ])
             rp.rp_whatifs) );
      ("top", Json.List (List.map segment_json dg.dg_top));
      ("critical_path", Json.List (List.map segment_json rp.rp_segments));
    ]

let write_json dg ~path = Json.write_file ~indent:1 path (to_json dg)

(* ------------------------------------------------------------------ *)
(* Remarks, metrics, trace highlight                                   *)
(* ------------------------------------------------------------------ *)

let emit_remarks ?(loc = "run") dg =
  let rp = dg.dg_report in
  let open Critpath in
  Remarks.emit ~kind:Remarks.Analysis ~pass:"perf-doctor" ~name:"binding-resource" ~loc
    ~args:
      (List.map
         (fun (res, c) -> (resource_name res, Remarks.Num c))
         rp.rp_resources
      @ [ ("makespan_cycles", Remarks.Num rp.rp_makespan) ])
    (Printf.sprintf "critical path is %s-bound" (resource_name rp.rp_binding));
  List.iter
    (fun w ->
      Remarks.emit ~kind:Remarks.Analysis ~pass:"perf-doctor" ~name:"speedup-ceiling"
        ~loc
        ~args:
          [
            ("whatif", Remarks.Str w.wf_name);
            ("bound_cycles", Remarks.Num w.wf_bound_cycles);
            ( "speedup",
              match w.wf_speedup with
              | Some s -> Remarks.Num s
              | None -> Remarks.Str "unbounded" );
          ]
        (Printf.sprintf "%s caps the speedup of this run" w.wf_name))
    rp.rp_whatifs

let emit_metrics dg =
  let rp = dg.dg_report in
  let open Critpath in
  List.iter
    (fun (cat, c) ->
      Metrics.incr "doctor.critpath_cycles" ~labels:[ ("category", category_name cat) ]
        ~by:c)
    rp.rp_attribution;
  Metrics.incr "doctor.binding_resource"
    ~labels:[ ("resource", resource_name rp.rp_binding) ];
  List.iter
    (fun w ->
      match w.wf_speedup with
      | Some s ->
        Metrics.set_gauge "doctor.whatif_speedup" ~labels:[ ("whatif", w.wf_name) ] s
      | None -> ())
    rp.rp_whatifs

let annotate_trace tracer dg =
  let open Critpath in
  if Trace.enabled tracer then begin
    let segments = dg.dg_report.rp_segments in
    List.iter
      (fun sg ->
        Trace.complete tracer
          ~cat:("critpath_" ^ category_name sg.sg_category)
          ~track:Trace.critpath_track
          ~args:
            [
              ("agent", Trace.Str sg.sg_agent);
              ("bound", Trace.Str (bound_name sg.sg_bound));
            ]
          ~ts:sg.sg_start
          ~dur:(segment_cycles sg)
          sg.sg_label)
      segments;
    (* One arrow per consecutive pair: the handoff points are the
       edges the walk followed. *)
    let rec arrows = function
      | a :: (b :: _ as rest) ->
        let id = Trace.fresh_flow_id tracer in
        Trace.flow_start tracer ~cat:"critpath" ~track:Trace.critpath_track
          ~ts:(a.sg_start +. (Critpath.segment_cycles a /. 2.0))
          ~id "critpath_edge";
        Trace.flow_finish tracer ~cat:"critpath" ~track:Trace.critpath_track
          ~ts:(b.sg_start +. (Critpath.segment_cycles b /. 2.0))
          ~id "critpath_edge";
        arrows rest
      | _ -> ()
    in
    arrows segments
  end
