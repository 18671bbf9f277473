(* Observability flags shared by the axi4mlir_* tools.

   Every tool that compiles through the pass pipeline accepts the same
   two flags, parsed by the same terms, so `--remarks` and `--metrics`
   behave identically in axi4mlir-opt and axi4mlir-run: enable the
   collectors before any work, dump on the way out (including the
   failure path — a Missed remark explaining *why* compilation bailed
   is most valuable exactly then). *)

open Cmdliner

let remarks_flag =
  Arg.(
    value & flag
    & info [ "remarks" ]
        ~doc:
          "Collect optimization remarks from the transform passes (transfer \
           hoisting, copy specialisation, offload rejections) and print them \
           to stderr as LLVM-style YAML documents.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON dump of the metrics registry (and any collected \
           remarks) to $(docv) on exit.")

let doctor_flag =
  Arg.(
    value & flag
    & info [ "doctor" ]
        ~doc:
          "Run the perf doctor over the measured run: extract the critical \
           path through the makespan, attribute every cycle of it, name the \
           binding resource and print what-if speedup ceilings (zero-cost \
           DMA, infinite DMA channels, perfect overlap).")

let critical_path_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "critical-path" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable axi4mlir-critpath-v1 JSON artifact \
           (critical path, attribution, what-ifs) to $(docv).")

(* The doctor runs after the measured run and before any trace export,
   so its highlight slices land in the written trace. Fails the tool if
   the diagnosis comes back empty — @doctor-quick relies on that. *)
let run_doctor ?(loc = "run") soc ~doctor ~critical_path =
  if doctor || critical_path <> None then begin
    match Doctor.diagnose (Soc.critpath_input soc) with
    | Error msg -> failwith ("perf doctor: " ^ msg)
    | Ok dg ->
      Doctor.emit_remarks ~loc dg;
      Doctor.emit_metrics dg;
      Doctor.annotate_trace soc.Soc.tracer dg;
      (match critical_path with
      | Some path ->
        Doctor.write_json dg ~path;
        Printf.printf "critical path: %s (axi4mlir-critpath-v1)\n" path
      | None -> ());
      if doctor then begin
        let text = Doctor.render dg in
        if String.trim text = "" then failwith "perf doctor: empty diagnosis";
        print_newline ();
        print_string text
      end
  end

let setup ~remarks ~metrics =
  if remarks then Remarks.enable ();
  if metrics <> None then Metrics.enable (Metrics.default)

(* The metrics artifact carries the remarks too: one self-describing
   file per run is easier to archive next to a trace than two. *)
let metrics_json () =
  match Metrics.to_json () with
  | Json.Obj fields -> Json.Obj (fields @ [ ("remarks", Remarks.all_to_json ()) ])
  | other -> other

let finish ~remarks ~metrics =
  if remarks then prerr_string (Remarks.render_all ());
  match metrics with
  | None -> ()
  | Some path ->
    Json.write_file ~indent:2 path (metrics_json ());
    Printf.eprintf "metrics      : %s\n" path

(* Run [body], dumping remarks/metrics on both the success and the
   failure path; a [Failure], an op the accelerator cannot take, or a
   pass that breaks verification (e.g. on hostile input IR) becomes a
   one-line cmdliner error (exit 124). *)
let with_observability ~remarks ~metrics body =
  setup ~remarks ~metrics;
  let fail msg =
    finish ~remarks ~metrics;
    `Error (false, msg)
  in
  match body () with
  | result ->
    finish ~remarks ~metrics;
    result
  | exception (Failure msg | Match_annotate.Rejected msg) -> fail msg
  | exception Pass.Pass_failure { pass; failing_op; message } ->
    let what =
      if pass = Pass.input then "input module failed verification"
      else Printf.sprintf "pass %s failed" pass
    in
    fail (Printf.sprintf "%s on %s: %s" what failing_op message)

(* The command line as cmdliner should see it. cmdliner takes any
   argument that starts with '-' for an option, so "--count -5" fails
   as "unknown option '-5'" before the flag's own check can name the
   problem. A long flag followed by a negative number ("-5", "-16,16,16",
   "-0.5") is joined into "--count=-5", which cmdliner reads as the
   flag's value; nothing after "--" is touched. Every tool passes this
   to [Cmd.eval ~argv]. *)
let argv () =
  let negative a = String.length a >= 2 && a.[0] = '-' && a.[1] >= '0' && a.[1] <= '9' in
  let long_flag a =
    String.length a > 2 && String.starts_with ~prefix:"--" a && not (String.contains a '=')
  in
  let rec join = function
    | "--" :: _ as rest -> rest
    | flag :: value :: rest when long_flag flag && negative value ->
      (flag ^ "=" ^ value) :: join rest
    | arg :: rest -> arg :: join rest
    | [] -> []
  in
  match Array.to_list Sys.argv with
  | [] -> Sys.argv
  | prog :: args -> Array.of_list (prog :: join args)

(* A comma-separated integer flag value ("16,16,16"); a malformed one
   fails naming the flag. *)
let parse_ints ~flag text =
  match List.map int_of_string (String.split_on_char ',' text) with
  | ints -> ints
  | exception Failure _ ->
    failwith (Printf.sprintf "--%s: expected comma-separated integers (got %S)" flag text)

(* Counts and extents given on the command line are checked here, once,
   so that an out-of-range value fails naming its flag instead of
   tripping an assertion or an [Invalid_argument] in a layer below. *)
let positive ~flag n =
  if n < 1 then failwith (Printf.sprintf "--%s must be >= 1 (got %d)" flag n);
  n

let check_extents ~flag text dims =
  if List.exists (fun d -> d < 1) dims then
    failwith (Printf.sprintf "--%s: every extent must be >= 1 (got %s)" flag text)

(* The element count of an operand of these (positive) extents, or one
   more than the simulated DDR holds when it does not fit: compared by
   division, so no product overflows. *)
let capacity_elements = Sim_memory.capacity_bytes / 4

let rec saturated_elements = function
  | [] -> 1
  | d :: rest ->
    let inner = saturated_elements rest in
    if d > capacity_elements / inner then capacity_elements + 1 else d * inner

(* A problem whose operands do not fit in the simulated DDR fails here,
   before anything is built or allocated. *)
let check_fits ~flag text operands =
  let total = List.fold_left (fun acc o -> acc + saturated_elements o) 0 operands in
  if total > capacity_elements then
    failwith
      (Printf.sprintf "--%s %s: the operands do not fit in the %d MiB of simulated DDR" flag
         text
         (Sim_memory.capacity_bytes / (1024 * 1024)))

let matmul_dims ~flag text =
  match parse_ints ~flag text with
  | [ m; n; k ] as dims ->
    check_extents ~flag text dims;
    check_fits ~flag text [ [ m; k ]; [ k; n ]; [ m; n ] ];
    (m, n, k)
  | _ -> failwith (Printf.sprintf "--%s expects M,N,K" flag)

(* IC,IHW,OC,FHW of a square, unit-stride convolution. *)
let conv_dims ~flag text =
  match parse_ints ~flag text with
  | [ ic; ihw; oc; fhw ] as dims ->
    check_extents ~flag text dims;
    if fhw > ihw then
      failwith
        (Printf.sprintf "--%s: filter size FHW = %d exceeds input size IHW = %d" flag fhw
           ihw);
    let ohw = ihw - fhw + 1 in
    check_fits ~flag text [ [ ic; ihw; ihw ]; [ oc; ic; fhw; fhw ]; [ oc; ohw; ohw ] ];
    (ic, ihw, oc, fhw)
  | _ -> failwith (Printf.sprintf "--%s expects IC,IHW,OC,FHW" flag)

(* Shared rendering for the `--list-*` introspection flags
   (axi4mlir-opt --list-passes, axi4mlir-tune --list-space): a title
   followed by an aligned name/description column pair. *)
let print_listing ~title items =
  print_endline title;
  let width = List.fold_left (fun w (name, _) -> max w (String.length name)) 0 items in
  List.iter (fun (name, desc) -> Printf.printf "  %-*s  %s\n" width name desc) items

(* The passes the axi4mlir-opt pipeline can run, in pipeline order:
   the accelerator flow instantiated with every optional pass enabled
   (so Coalesce/Lower/Copy-specialisation show up), then the CPU
   reference lowering. *)
let registered_passes () =
  let accel = Presets.matmul ~version:Accel_matmul.V4 ~size:16 () in
  let pipeline =
    Pipeline.make ~accel ~host:Host_config.pynq_z2
      ~options:{ Codegen_options.default with coalesce_transfers = true }
      ()
  in
  let dedup items =
    List.rev
      (List.fold_left
         (fun acc (name, desc) -> if List.mem_assoc name acc then acc else (name, desc) :: acc)
         [] items)
  in
  dedup
    (List.map
       (fun (p : Pass.t) -> (p.Pass.pass_name, "accelerator pipeline"))
       (Pipeline.passes pipeline)
    @ List.map
        (fun (p : Pass.t) -> (p.Pass.pass_name, "mlir_CPU reference lowering"))
        Pipeline.cpu_passes)
