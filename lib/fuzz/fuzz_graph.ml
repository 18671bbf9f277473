(* Graph-level fuzzing: random conv-chain graphs executed baseline vs
   residency on fresh SoCs over identical label-seeded data. The
   oracle's invariants:

     1. bit-identity — every graph output byte-equal between the two
        modes (resident patches must reproduce streamed arithmetic
        exactly);
     2. the residency run moves strictly fewer DMA words (it may never
        pay for a transfer the baseline skipped).

   Graphs are adversarial on purpose: branches (a second consumer) and
   exported intermediates break chain eligibility, stride-2 and 1x1
   filters hit the resident-patch indexing corners, and batch 2 swaps
   the executor into weight-stationary node-major order. *)

type case = {
  gc_seed : int;
  gc_batch : int;
  gc_graph : Graph_ir.t;
}

let generate ~seed =
  let rng = Fuzz_rng.create seed in
  let batch = if Fuzz_rng.bool rng then 1 else 2 in
  let tensors = ref [] and nodes = ref [] and outputs = ref [] in
  let next_tensor = ref 0 and next_node = ref 0 in
  let add_tensor ~name ~kind ~shape =
    let id = !next_tensor in
    incr next_tensor;
    tensors :=
      { Graph_ir.tn_id = id; tn_name = name; tn_kind = kind; tn_shape = shape }
      :: !tensors;
    id
  in
  let add_node ~name ~op ~args ~out_shape =
    let out =
      add_tensor ~name:(name ^ ".out") ~kind:Graph_ir.Activation ~shape:out_shape
    in
    let id = !next_node in
    incr next_node;
    nodes :=
      { Graph_ir.nd_id = id; nd_name = name; nd_op = op; nd_args = args; nd_out = out }
      :: !nodes;
    out
  in
  let ic0 = Fuzz_rng.int_range rng 2 5 in
  let hw0 = Fuzz_rng.int_range rng 8 14 in
  let input = add_tensor ~name:"in" ~kind:Graph_ir.Input ~shape:[ ic0; hw0; hw0 ] in
  let nconvs = Fuzz_rng.int_range rng 2 4 in
  let cur = ref input and cur_c = ref ic0 and cur_hw = ref hw0 in
  for j = 1 to nconvs do
    let fhw = if !cur_hw >= 3 && Fuzz_rng.chance rng 70 then 3 else 1 in
    let stride =
      if Fuzz_rng.chance rng 30 && Graph_ir.conv_out !cur_hw ~fhw ~stride:2 >= 1 then 2
      else 1
    in
    let oc = Fuzz_rng.int_range rng 2 5 in
    let ohw = Graph_ir.conv_out !cur_hw ~fhw ~stride in
    let name = Printf.sprintf "conv%d" j in
    let w =
      add_tensor ~name:(name ^ ".w") ~kind:Graph_ir.Weights
        ~shape:[ oc; !cur_c; fhw; fhw ]
    in
    let out =
      add_node ~name ~op:(Graph_ir.Conv { stride }) ~args:[ !cur; w ]
        ~out_shape:[ oc; ohw; ohw ]
    in
    if j < nconvs then begin
      (* adversarial edges: a branch consumer or an exported
         intermediate both make the edge ineligible for chaining *)
      if Fuzz_rng.chance rng 25 then begin
        let tap =
          add_node ~name:(name ^ ".tap") ~op:Graph_ir.Resize ~args:[ out ]
            ~out_shape:[ oc; ohw; ohw ]
        in
        outputs := tap :: !outputs
      end;
      if Fuzz_rng.chance rng 20 then outputs := out :: !outputs
    end;
    cur := out;
    cur_c := oc;
    cur_hw := ohw
  done;
  outputs := !cur :: !outputs;
  let g =
    {
      Graph_ir.g_name = Printf.sprintf "fuzz-graph-%d" seed;
      g_tensors = Array.of_list (List.rev !tensors);
      g_nodes = Array.of_list (List.rev !nodes);
      g_outputs = List.rev !outputs;
    }
  in
  (match Graph_ir.validate g with
  | Ok () -> ()
  | Error msg ->
    failwith (Printf.sprintf "Fuzz_graph: generator produced an invalid graph: %s" msg));
  { gc_seed = seed; gc_batch = batch; gc_graph = g }

let run c =
  let base = Graph_exec.run ~batch:c.gc_batch ~residency:false c.gc_graph in
  let resd = Graph_exec.run ~batch:c.gc_batch ~residency:true c.gc_graph in
  (base, resd)

let check c =
  match run c with
  | base, resd ->
    let bw = Graph_exec.result_dma_words base in
    let rw = Graph_exec.result_dma_words resd in
    if not (Graph_exec.outputs_equal base resd) then
      Error
        (Printf.sprintf "seed %d (batch %d): residency changed output bytes" c.gc_seed
           c.gc_batch)
    else if rw >= bw then
      Error
        (Printf.sprintf
           "seed %d (batch %d): residency moved %.0f DMA words, baseline %.0f"
           c.gc_seed c.gc_batch rw bw)
    else Ok ()
  | exception (Failure msg | Match_annotate.Rejected msg) ->
    Error (Printf.sprintf "seed %d (batch %d): crash: %s" c.gc_seed c.gc_batch msg)
