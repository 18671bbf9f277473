(* Emit a call whose result values REUSE the accel op's result values,
   so later uses of the offset chain stay valid without substitution. *)
let call b ?(results = []) ?(attrs = []) entry operands =
  Builder.emit b
    (Ir.op "func.call" ~operands ~results
       ~attrs:(("callee", Attribute.Str (Runtime_abi.name entry)) :: attrs))

(* What a runtime call keeps of its accel op's attrs: dma_init's
   double_buffer marker, and start_recv's mode (the wait side needs it
   to pick store vs accumulate when landing the data). *)
let forwarded_attrs (o : Ir.op) =
  List.filter
    (function "double_buffer", Attribute.Bool true | "mode", _ -> true | _ -> false)
    o.attrs

let expand b (o : Ir.op) =
  (match Runtime_abi.of_accel_op o.name with
  | Some entry ->
    (* Index payloads are staged as i32 instruction words. *)
    let operands =
      match (entry, o.operands) with
      | Runtime_abi.Stage_literal, [ word; offset ] when Ty.equal word.Ir.vty Ty.index ->
        [ Arith.index_cast b word; offset ]
      | _, operands -> operands
    in
    call b ~results:o.results ~attrs:(forwarded_attrs o) entry operands
  | None -> (
    match (o.name, o.operands) with
    | "accel.sendDim", [ _src; offset ] ->
      let word = Arith.constant_i32 b (Accel.send_dim_extent o) in
      call b ~results:o.results Runtime_abi.Stage_literal [ word; offset ]
    | "accel.recv", [ tile; offset ] ->
      call b Runtime_abi.Flush_send [];
      let len = Arith.constant_i32 b (Ty.num_elements (Ty.memref_of tile.Ir.vty)) in
      call b Runtime_abi.Start_recv [ len ];
      call b Runtime_abi.Wait_recv [];
      let accumulate = Accel.recv_mode_of o = Accel.Accumulate in
      call b ~results:o.results
        (Runtime_abi.Copy_from { accumulate; spec = false })
        [ tile; offset ]
    | ("accel.sendDim" | "accel.recv"), _ ->
      failwith (Printf.sprintf "lower-accel: malformed %s" o.name)
    | other, _ -> failwith (Printf.sprintf "lower-accel: unexpected accel op %s" other)));
  if Accel.is_flush o then call b Runtime_abi.Flush_send []

let rec rewrite_op b (o : Ir.op) =
  if Accel.is_accel o then expand b o
  else begin
    let regions =
      List.map (fun blocks -> List.map (rewrite_block (Builder.ctx b)) blocks) o.regions
    in
    Builder.emit b { o with regions }
  end

and rewrite_block ctx (blk : Ir.block) =
  let b = Builder.create ctx in
  List.iter (rewrite_op b) blk.body;
  { blk with body = Builder.finish b }

let pass =
  Pass.make "lower-accel-to-runtime" (fun m ->
      let ctx = Ir.context_of m in
      Ir.with_module_body m
        (List.map
           (fun (f : Ir.op) ->
             if Func.is_func f then
               { f with regions = [ [ rewrite_block ctx (Func.body_of f) ] ] }
             else f)
           (Ir.module_body m)))
