(* The axi4mlir-graph-v1 artifact.

   Schema discipline is ADD-ONLY: tools parse these files across repo
   versions, so existing fields keep their names, meanings and value
   types forever; extensions add fields (or bump the schema string for
   a breaking redesign). The golden test pins the exact bytes for a
   fixed run, so an accidental rename/reorder fails loudly. *)

let schema = "axi4mlir-graph-v1"

let to_json (r : Graph_exec.result) =
  let c = r.Graph_exec.rs_counters in
  let node_json (s : Graph_exec.node_stat) =
    Json.Obj
      [
        ("id", Json.Int s.Graph_exec.ns_node);
        ("name", Json.String s.ns_name);
        ("op", Json.String s.ns_op);
        ("cycles", Json.Float s.ns_cycles);
        ("dma_words", Json.Float s.ns_dma_words);
        ("skipped_words", Json.Int s.ns_skipped_words);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("model", Json.String r.rs_graph.Graph_ir.g_name);
      ("batch", Json.Int r.rs_batch);
      ("residency", Json.Bool r.rs_plan.Graph_residency.pl_residency);
      ("graph", Graph_ir.to_json r.rs_graph);
      ("plan", Graph_residency.to_json r.rs_graph r.rs_plan);
      ( "totals",
        Json.Obj
          [
            ("cycles", Json.Float c.Perf_counters.cycles);
            ("dma_transactions", Json.Float c.Perf_counters.dma_transactions);
            ("dma_words_sent", Json.Float c.Perf_counters.dma_words_sent);
            ("dma_words_received", Json.Float c.Perf_counters.dma_words_received);
            ("dma_words_skipped", Json.Int r.rs_skipped_words);
            ("macs", Json.Int (Graph_ir.macs r.rs_graph));
          ] );
      ( "nodes",
        Json.List (Array.to_list (Array.map node_json r.rs_node_stats)) );
    ]

let render r = Json.to_string ~indent:1 (to_json r) ^ "\n"

let write r ~path = Json.write_file ~indent:1 path (to_json r)
