(* Emit index values for one affine expression at the current loop ivs. *)
let rec index_of_expr b ivs expr =
  match expr with
  | Affine_map.Dim d -> ivs.(d)
  | Affine_map.Cst c -> Arith.constant_index b c
  | Affine_map.Add (x, y) ->
    Arith.addi b (index_of_expr b ivs x) (index_of_expr b ivs y)
  | Affine_map.Mul (x, y) ->
    Arith.muli b (index_of_expr b ivs x) (index_of_expr b ivs y)

let lower_generic b (o : Ir.op) =
  let maps = Linalg.indexing_maps o in
  let ranges = Array.of_list (Linalg.loop_ranges o) in
  let n_dims = Array.length ranges in
  let n_ins = Linalg.num_inputs o in
  let kernel = Ir.single_block o in
  let ivs = Array.make n_dims (Builder.fresh b Ty.index) in
  let rec loops d =
    if d = n_dims then body ()
    else
      Scf.for_range b ~lb:0 ~ub:ranges.(d) ~step:1 (fun b iv ->
          ivs.(d) <- iv;
          ignore b;
          loops (d + 1))
  and body () =
    (* Load one element per operand. *)
    let loaded =
      List.map2
        (fun map operand ->
          let indices = List.map (index_of_expr b ivs) map.Affine_map.exprs in
          Memref_d.load b operand indices)
        maps o.operands
    in
    (* Inline the kernel with block args bound to the loaded values. *)
    let env : (int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
    List.iter2
      (fun (arg : Ir.value) v -> Hashtbl.replace env arg.vid v)
      kernel.bargs loaded;
    let subst (v : Ir.value) =
      match Hashtbl.find_opt env v.vid with Some v' -> v' | None -> v
    in
    List.iter
      (fun (kop : Ir.op) ->
        if kop.name = "linalg.yield" then begin
          (* Store yielded values into the outputs. *)
          let outputs = Util.list_drop n_ins o.operands in
          let out_maps = Util.list_drop n_ins maps in
          List.iteri
            (fun i yielded ->
              let dst = List.nth outputs i in
              let map = List.nth out_maps i in
              let indices = List.map (index_of_expr b ivs) map.Affine_map.exprs in
              Memref_d.store b (subst yielded) dst indices)
            kop.operands
        end
        else begin
          let results = List.map (fun (r : Ir.value) -> Builder.fresh b r.vty) kop.results in
          List.iter2
            (fun (old_r : Ir.value) new_r -> Hashtbl.replace env old_r.vid new_r)
            kop.results results;
          Builder.emit b { kop with operands = List.map subst kop.operands; results }
        end)
      kernel.body
  in
  loops 0

let rewrite_func ctx (f : Ir.op) =
  if not (Func.is_func f) then f
  else begin
    let block = Func.body_of f in
    let b = Builder.create ctx in
    List.iter
      (fun (op : Ir.op) ->
        if Linalg.is_generic op then lower_generic b op else Builder.emit b op)
      block.body;
    { f with regions = [ [ Ir.block ~args:block.bargs (Builder.finish b) ] ] }
  end

let pass =
  Pass.make "lower-linalg-to-loops" (fun m ->
      let ctx = Ir.context_of m in
      Ir.with_module_body m (List.map (rewrite_func ctx) (Ir.module_body m)))
