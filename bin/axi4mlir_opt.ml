(* axi4mlir-opt: the pass-driver tool.

   Reads a module in the generic IR syntax (file or stdin), runs the
   AXI4MLIR pipeline configured by an accelerator/host JSON file, and
   prints the result.

     dune exec bin/axi4mlir_opt.exe -- --config accel.json input.mlir
     dune exec bin/axi4mlir_opt.exe -- --emit-matmul 64,64,64 --config accel.json -
*)

open Cmdliner

let read_input = function
  | "-" ->
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf stdin 1
       done
     with End_of_file -> ());
    Buffer.contents buf
  | path -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> text
    | exception Sys_error msg -> failwith msg)

(* Hostile IR ends in one line naming the input, not an uncaught
   exception. *)
let parse_input path =
  match Parser_ir.parse_op (read_input path) with
  | modul -> modul
  | exception Parser_ir.Parse_error msg ->
    failwith (Printf.sprintf "%s: %s" (if path = "-" then "<stdin>" else path) msg)

let run_tool config_path input emit_matmul emit_conv flow tiles no_cpu_tiling no_copy_spec
    coalesce double_buffer accel_only cpu_only pretty list_passes remarks metrics_out =
  if list_passes then begin
    Tool_common.print_listing ~title:"Registered passes (pipeline order):"
      (Tool_common.registered_passes ());
    `Ok ()
  end
  else
  Tool_common.with_observability ~remarks ~metrics:metrics_out @@ fun () ->
  let modul =
    match (emit_matmul, emit_conv, input) with
    | Some _, Some _, _ -> failwith "--emit-matmul and --emit-conv are exclusive"
    | Some dims, None, _ ->
      let m, n, k = Tool_common.matmul_dims ~flag:"emit-matmul" dims in
      Axi4mlir.build_matmul_module ~m ~n ~k ()
    | None, Some dims, _ ->
      let ic, ihw, oc, fhw = Tool_common.conv_dims ~flag:"emit-conv" dims in
      Axi4mlir.build_conv_module ~n:1 ~ic ~ih:ihw ~iw:ihw ~oc ~fh:fhw ~fw:fhw ()
    | None, None, Some path -> parse_input path
    | None, None, None ->
      failwith "provide an input file (or '-'), --emit-matmul or --emit-conv"
  in
  let result =
    if cpu_only then Axi4mlir.compile_cpu modul
    else begin
      let config_path =
        match config_path with
        | Some p -> p
        | None -> failwith "--config is required (except with --cpu)"
      in
      let host, accel =
        match Config_parser.parse_file_result config_path with
        | Ok parsed -> parsed
        | Error msg -> failwith msg
      in
      let bench = Axi4mlir.create ~host accel in
      let options =
        {
          Axi4mlir.flow;
          tiles = Option.map (Tool_common.parse_ints ~flag:"tiles") tiles;
          cpu_tiling = not no_cpu_tiling;
          copy_specialization = not no_copy_spec;
          coalesce_transfers = coalesce;
          double_buffer;
          to_runtime_calls = not accel_only;
        }
      in
      Axi4mlir.compile bench ~options modul
    end
  in
  print_string (if pretty then Printer.to_pretty result else Printer.to_generic result);
  `Ok ()

let config =
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE"
         ~doc:"Accelerator/host configuration (JSON, Fig. 5 format).")

let input =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"INPUT"
         ~doc:"Module in generic IR syntax; '-' reads stdin.")

let emit_matmul =
  Arg.(value & opt (some string) None & info [ "emit-matmul" ] ~docv:"M,N,K"
         ~doc:"Ignore INPUT and start from a fresh linalg matmul module.")

let emit_conv =
  Arg.(value & opt (some string) None & info [ "emit-conv" ] ~docv:"IC,IHW,OC,FHW"
         ~doc:"Ignore INPUT and start from a fresh linalg conv2d module \
               (batch 1, square input/filter, stride 1).")

let flow =
  Arg.(value & opt (some string) None & info [ "flow" ] ~docv:"NAME"
         ~doc:"Override the configuration's selected opcode flow.")

let tiles =
  Arg.(value & opt (some string) None & info [ "tiles" ] ~docv:"TM,TN,TK"
         ~doc:"Tile-size override for flexible engines.")

let no_cpu_tiling =
  Arg.(value & flag & info [ "no-cpu-tiling" ] ~doc:"Disable cache-hierarchy tiling.")

let no_copy_spec =
  Arg.(value & flag & info [ "no-copy-spec" ]
         ~doc:"Disable the Sec. IV-B strided-copy specialisation.")

let coalesce =
  Arg.(value & flag & info [ "coalesce" ]
         ~doc:"Enable Sec. V transfer coalescing.")

let double_buffer =
  Arg.(value & flag & info [ "double-buffer" ]
         ~doc:"Enable the Sec. V double-buffering attribute.")

let accel_only =
  Arg.(value & flag & info [ "accel-only" ]
         ~doc:"Stop at the accel dialect (Fig. 6b level) instead of runtime calls.")

let cpu_only =
  Arg.(value & flag & info [ "cpu" ]
         ~doc:"Run the mlir_CPU lowering (linalg to loops) instead of offloading.")

let pretty =
  Arg.(value & flag & info [ "pretty" ] ~doc:"Human-oriented printing (not re-parseable).")

let list_passes =
  Arg.(value & flag & info [ "list-passes" ]
         ~doc:"List the registered passes (accelerator pipeline and CPU \
               reference lowering) and exit.")

let cmd =
  let doc = "AXI4MLIR pass driver: compile linalg modules into accelerator host code" in
  Cmd.v
    (Cmd.info "axi4mlir-opt" ~doc)
    Term.(
      ret
        (const run_tool $ config $ input $ emit_matmul $ emit_conv $ flow $ tiles
       $ no_cpu_tiling $ no_copy_spec $ coalesce $ double_buffer $ accel_only $ cpu_only
       $ pretty $ list_passes $ Tool_common.remarks_flag $ Tool_common.metrics_out))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
