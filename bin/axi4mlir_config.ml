(* axi4mlir-config: emit, validate and inspect accelerator
   configuration files.

     dune exec bin/axi4mlir_config.exe -- --list
     dune exec bin/axi4mlir_config.exe -- --preset v3_16 --flow Cs -o v3_16.json
     dune exec bin/axi4mlir_config.exe -- --check my_accel.json
*)

open Cmdliner

let run_tool list_presets preset flow output check platform_preset check_platform =
  match (list_presets, preset, check, platform_preset, check_platform) with
  | true, _, _, _, _ ->
    List.iter
      (fun name ->
        match Presets.find_by_name name with
        | Error msg -> failwith msg
        | Ok config ->
          Printf.printf "%-8s %-20s flows: %s (default %s)\n" name
            config.Accel_config.op_kind
            (String.concat ", " (List.map fst config.Accel_config.opcode_flows))
            config.Accel_config.selected_flow)
      Presets.names;
    Printf.printf "platform presets (axi4mlir-platform-v1):\n";
    List.iter
      (fun (name, p) ->
        Printf.printf "%-12s %s (%.1f units)\n" name (Platform_ir.to_string p)
          (Platform_cost.resource_total_exn p))
      Platform_ir.presets;
    `Ok ()
  | false, _, Some path, _, _ -> (
    match Config_parser.parse_file_result path with
    | Error msg -> `Error (false, msg)
    | Ok (_host, config) ->
      Printf.printf "%s: valid (%s, %s flow, %d opcodes)\n" path
        config.Accel_config.accel_name config.Accel_config.selected_flow
        (List.length config.Accel_config.opcode_map);
      `Ok ())
  | false, None, None, Some name, _ -> (
    match Platform_ir.find_preset name with
    | Error msg -> `Error (false, msg)
    | Ok p ->
      (match output with
      | None -> print_endline (Json.to_string ~indent:1 (Platform_ir.to_json p))
      | Some path ->
        Platform_ir.write_file path p;
        Printf.printf "wrote %s\n" path);
      `Ok ())
  | false, None, None, None, Some path -> (
    match Platform_ir.load_file path with
    | Error msg -> `Error (false, msg)
    | Ok p -> (
      match Platform_cost.resource_total p with
      | Error msg -> `Error (false, msg)
      | Ok units ->
        Printf.printf "%s: valid (%s; %.1f resource units)\n" path
          (Platform_ir.to_string p) units;
        `Ok ()))
  | false, Some name, None, None, None -> (
    match Presets.find_by_name ?flow name with
    | Error msg -> `Error (false, msg)
    | Ok config ->
      (match output with
      | None -> print_endline (Config_parser.to_string Host_config.pynq_z2 config)
      | Some path ->
        Config_parser.write_file path Host_config.pynq_z2 config;
        Printf.printf "wrote %s\n" path);
      `Ok ())
  | false, None, None, None, None ->
    `Error
      ( true,
        "one of --list, --preset, --check, --platform-preset or --check-platform is \
         required" )
  | false, _, _, _, _ ->
    `Error
      ( true,
        "--preset/--check and --platform-preset/--check-platform are mutually \
         exclusive" )

let list_presets = Arg.(value & flag & info [ "list" ] ~doc:"List available presets.")

let preset =
  Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME"
         ~doc:"Emit a preset configuration (e.g. v3_16, conv2d).")

let flow =
  Arg.(value & opt (some string) None & info [ "flow" ] ~docv:"NAME"
         ~doc:"Select the preset's default opcode flow.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to FILE instead of stdout.")

let check =
  Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE"
         ~doc:"Parse and validate an existing configuration file.")

let platform_preset =
  Arg.(value & opt (some string) None & info [ "platform-preset" ] ~docv:"NAME"
         ~doc:"Emit a named platform description (axi4mlir-platform-v1 JSON): \
               $(b,pynq-2xv4), $(b,hetero-v3v4) or $(b,budget-4xv2).")

let check_platform =
  Arg.(value & opt (some string) None & info [ "check-platform" ] ~docv:"FILE"
         ~doc:"Parse and validate an existing platform description, printing \
               its one-line summary and resource total.")

let cmd =
  let doc = "emit, validate and inspect AXI4MLIR accelerator configurations" in
  Cmd.v
    (Cmd.info "axi4mlir-config" ~doc)
    Term.(
      ret
        (const run_tool $ list_presets $ preset $ flow $ output $ check
       $ platform_preset $ check_platform))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
