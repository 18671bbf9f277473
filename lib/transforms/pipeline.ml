type t = { accel : Accel_config.t; host : Host_config.t; options : Codegen_options.t }

let make ~accel ~host ?(options = Codegen_options.default) () = { accel; host; options }

let passes t =
  let o = t.options in
  [ Match_annotate.pass ~accel:t.accel ~host:t.host ~options:o (); Accel_codegen.pass ]
  @ (if o.coalesce_transfers then [ Coalesce_transfers.pass ] else [])
  (* Self-gating on the dma_init double_buffer attribute: identity
     otherwise. Runs after coalescing so merged chains pipeline whole. *)
  @ [ Double_buffer.pass ]
  @ (if o.to_runtime_calls then [ Lower_accel_to_runtime.pass ] else [])
  @ (if o.copy_specialization && o.to_runtime_calls then [ Copy_specialization.pass ]
     else [])
  @ [ Canonicalize.pass ]

let run ?stats ?tracer t m =
  let o = t.options in
  Remarks.emit ~kind:Remarks.Analysis ~pass:"pipeline" ~name:"config" ~loc:"module"
    ~args:
      [
        ("accel", Remarks.Str t.accel.Accel_config.accel_name);
        ( "flow",
          Remarks.Str
            (match o.flow with Some f -> f | None -> t.accel.Accel_config.selected_flow) );
        ("copy_specialization", Remarks.Bool o.copy_specialization);
        ("coalesce_transfers", Remarks.Bool o.coalesce_transfers);
        ("double_buffer", Remarks.Bool o.double_buffer);
      ]
    (Printf.sprintf "lowering for accelerator %s" t.accel.Accel_config.accel_name);
  let compiled = Pass.run_pipeline ?stats ?tracer (passes t) m in
  if Ir.count_ops Linalg.is_generic compiled > 0 then
    raise
      (Match_annotate.Rejected
         (Printf.sprintf "AXI4MLIR: cannot offload: %s: no accelerator matches linalg.generic"
            t.accel.Accel_config.accel_name));
  compiled

let run_result ?stats ?tracer t m =
  match run ?stats ?tracer t m with
  | compiled -> Ok compiled
  | exception Match_annotate.Rejected reason -> Error reason

let cpu_passes = [ Lower_linalg_to_loops.pass ]

let run_cpu ?stats ?tracer m =
  Pass.run_pipeline ?stats ?tracer cpu_passes m
