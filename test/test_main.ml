let () =
  Alcotest.run "axi4mlir"
    [
      ("support", Suite_support.tests);
      ("json", Suite_json.tests);
      ("ty-affine", Suite_ty_affine.tests);
      ("opcode", Suite_opcode.tests);
      ("ir", Suite_ir.tests);
      ("parser", Suite_parser.tests);
      ("cache", Suite_cache.tests);
      ("sim", Suite_sim.tests);
      ("stream", Suite_stream.tests);
      ("obs", Suite_obs.tests);
      ("critpath", Suite_critpath.tests);
      ("metrics", Suite_metrics.tests);
      ("telemetry", Suite_telemetry.tests);
      ("runtime", Suite_runtime.tests);
      ("config", Suite_config.tests);
      ("transforms", Suite_transforms.tests);
      ("interp", Suite_interp.tests);
      ("e2e", Suite_e2e.tests);
      ("workloads", Suite_workloads.tests);
      ("extensions", Suite_extensions.tests);
      ("async", Suite_async.tests);
      ("integration", Suite_integration.tests);
      ("multi-accel", Suite_multi_accel.tests);
      ("negative", Suite_negative.tests);
      ("tuner", Suite_tuner.tests);
      ("fuzz", Suite_fuzz.tests);
      ("serve", Suite_serve.tests);
      ("graph", Suite_graph.tests);
      ("platform", Suite_platform.tests);
    ]
