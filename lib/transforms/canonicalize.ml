let is_constant (o : Ir.op) = o.name = "arith.constant"

let rewrite_func ctx (f : Ir.op) =
  if not (Func.is_func f) then f
  else begin
    (* One canonical constant per (value attribute, result type). *)
    let canonical : (Attribute.t * Ty.t, Ir.value) Hashtbl.t = Hashtbl.create 32 in
    let subst : (int, Ir.value) Hashtbl.t = Hashtbl.create 64 in
    Ir.walk
      (fun o ->
        if is_constant o then begin
          let r = Ir.result o in
          let key = (Ir.attr_exn o "value", r.Ir.vty) in
          let canon =
            match Hashtbl.find_opt canonical key with
            | Some v -> v
            | None ->
              let v = Ir.fresh_value ctx r.Ir.vty in
              Hashtbl.add canonical key v;
              v
          in
          Hashtbl.replace subst r.Ir.vid canon
        end)
      f;
    let substitute (v : Ir.value) =
      match Hashtbl.find_opt subst v.Ir.vid with Some v' -> v' | None -> v
    in
    let rec strip (o : Ir.op) =
      {
        o with
        operands = List.map substitute o.operands;
        regions =
          List.map
            (fun blocks ->
              List.map
                (fun (blk : Ir.block) ->
                  {
                    blk with
                    body =
                      List.filter_map
                        (fun op -> if is_constant op then None else Some (strip op))
                        blk.Ir.body;
                  })
                blocks)
            o.regions;
      }
    in
    let entry_constants =
      Hashtbl.fold
        (fun (attr, _ty) v acc ->
          Ir.op "arith.constant" ~results:[ v ] ~attrs:[ ("value", attr) ] :: acc)
        canonical []
    in
    let block = Func.body_of f in
    let body = List.filter_map (fun op -> if is_constant op then None else Some (strip op)) block.body in
    { f with regions = [ [ Ir.block ~args:block.bargs (entry_constants @ body) ] ] }
  end

let pass =
  Pass.make "canonicalize-constants" (fun m ->
      let ctx = Ir.context_of m in
      Ir.with_module_body m (List.map (rewrite_func ctx) (Ir.module_body m)))
