(* Table I: the accelerator catalogue used in the experiments. *)

let run () =
  Report.header "Table I: Accelerators used in the experiments";
  let t =
    Tabulate.create
      [
        ("Type", Tabulate.Left);
        ("Possible Reuse", Tabulate.Left);
        ("Opcode(s)", Tabulate.Left);
        ("Size", Tabulate.Right);
        ("OPs/Cycle", Tabulate.Right);
        ("Buffer (elems)", Tabulate.Right);
      ]
  in
  List.iter
    (fun version ->
      List.iter
        (fun size ->
          let config = Presets.matmul ~version ~size () in
          Report.record_custom_point ~kind:"preset" ~dims:[ size ]
            ~config:(Benchdiff.config_hash (Accel_config.to_json config))
            [
              ("ops_per_cycle", config.Accel_config.ops_per_cycle);
              ( "buffer_capacity_elems",
                float_of_int config.Accel_config.buffer_capacity_elems );
            ];
          Tabulate.add_row t
            [
              Printf.sprintf "%s_size" (Report.version_name version);
              Presets.possible_reuse version;
              Presets.opcode_summary version;
              string_of_int size;
              Printf.sprintf "%.0f" config.Accel_config.ops_per_cycle;
              string_of_int config.Accel_config.buffer_capacity_elems;
            ])
        Presets.table1_sizes;
      Tabulate.add_rule t)
    [ Accel_matmul.V1; Accel_matmul.V2; Accel_matmul.V3; Accel_matmul.V4 ];
  Tabulate.print t;
  Report.note "All synthesised at 200 MHz (simulated); v4 supports non-square tiles.";
  (* the flows each type drives, from the presets *)
  Report.note "Flows: v1 {Ns}; v2 {Ns, As, Bs}; v3/v4 {Ns, As, Bs, Cs}."
