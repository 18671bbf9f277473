(* Software-pipelines the innermost transfer loop of a function whose
   [accel.dma_init] carries the Sec. V [double_buffer] attribute: the
   loop is fully unrolled, every flush-marked send chain is re-based
   onto alternating halves of the DMA input region (ping/pong staging)
   and turned into an [accel.start_send] returning an [!accel.token],
   and the matching [accel.wait] is deferred until the same half is
   about to be refilled two chains later. A trailing [accel.recv] (the
   fused compute+drain flows) becomes a [start_recv]/[wait] pair whose
   start is interleaved with the next iteration's sends, so tile i+1's
   transfer overlaps tile i's compute. The prologue is the first
   iteration's send block, the epilogue the last iteration's drain plus
   the residual token waits.

   The pass is self-gating: without the attribute (or when a loop fails
   the legality checks below, reported as Missed remarks) the IR passes
   through untouched, keeping the blocking path bit-identical. *)

let pass_name = "double-buffer"

let is_send_like (o : Ir.op) =
  match o.Ir.name with
  | "accel.sendLiteral" | "accel.send" | "accel.sendDim" | "accel.sendIdx" -> true
  | _ -> false

(* Ops we know how to clone: pure index/address arithmetic. Anything
   else (calls, stores, nested control flow) blocks the rewrite. *)
let is_clonable_pure (o : Ir.op) =
  match o.Ir.name with
  | "arith.constant" | "arith.addi" | "arith.subi" | "arith.muli" | "arith.index_cast"
  | "memref.subview" ->
    true
  | _ -> false

let missed ~name fmt =
  Printf.ksprintf
    (fun msg -> Remarks.emit ~kind:Remarks.Missed ~pass:pass_name ~name ~loc:"scf.for" msg)
    fmt

let const_int defs (v : Ir.value) =
  match Hashtbl.find_opt defs v.Ir.vid with
  | Some (o : Ir.op) when o.Ir.name = "arith.constant" -> (
    match Ir.attr o "value" with Some (Attribute.Int n) -> Some n | _ -> None)
  | _ -> None

(* Words one send-like op stages: data sends stream the whole tile,
   scalar sends (literal / dim / idx) stage one word. *)
let words_of_send_like (o : Ir.op) =
  match o.Ir.name with
  | "accel.send" -> (
    match o.Ir.operands with
    | src :: _ -> (
      match src.Ir.vty with
      | Ty.Memref m -> List.fold_left ( * ) 1 m.Ty.shape
      | _ -> invalid_arg "accel.send: payload is not a memref")
    | [] -> invalid_arg "accel.send: missing payload")
  | _ -> 1

type chain = { ch_first : int; ch_last : int; ch_words : int }

(* A chain is a maximal run of send-like ops closed by one carrying
   [flush = true]; interleaved pure ops do not break it. *)
let analyze_chains (body : Ir.op array) =
  let chains = ref [] in
  let cur_first = ref (-1) in
  let cur_words = ref 0 in
  Array.iteri
    (fun i o ->
      if is_send_like o then begin
        if !cur_first < 0 then begin
          cur_first := i;
          cur_words := 0
        end;
        cur_words := !cur_words + words_of_send_like o;
        if Accel.is_flush o then begin
          chains := { ch_first = !cur_first; ch_last = i; ch_words = !cur_words } :: !chains;
          cur_first := -1
        end
      end)
    body;
  if !cur_first >= 0 then Error "a send chain is not closed by a flush"
  else Ok (List.rev !chains)

(* Static trip count of an [scf.for]: constant step, and either
   constant bounds or the codegen's [ub = addi lb extent] shape. *)
let static_trip defs (for_op : Ir.op) =
  match for_op.Ir.operands with
  | [ lb; ub; step ] -> (
    match const_int defs step with
    | Some s when s > 0 -> (
      let extent =
        match (const_int defs lb, const_int defs ub) with
        | Some l, Some u -> Some (u - l)
        | _ -> (
          match Hashtbl.find_opt defs ub.Ir.vid with
          | Some (d : Ir.op) when d.Ir.name = "arith.addi" -> (
            match d.Ir.operands with
            | [ x; y ] when x.Ir.vid = lb.Ir.vid -> const_int defs y
            | [ x; y ] when y.Ir.vid = lb.Ir.vid -> const_int defs x
            | _ -> None)
          | _ -> None)
      in
      match extent with
      | Some e when e > 0 && e mod s = 0 -> Some (lb, s, e / s)
      | _ -> None)
    | _ -> None)
  | _ -> None

let max_unrolled_trip = 64

(* Attempt to pipeline one innermost loop; [None] leaves it intact. *)
let try_expand ~ctx ~defs ~half_words (for_op : Ir.op) : Ir.op list option =
  let block = Ir.single_block for_op in
  let iv = match block.Ir.bargs with [ v ] -> v | _ -> invalid_arg "scf.for: bad block" in
  let body =
    match List.rev block.Ir.body with
    | last :: rev_rest when last.Ir.name = Scf.yield_name -> Array.of_list (List.rev rev_rest)
    | _ -> [||]
  in
  let n = Array.length body in
  match analyze_chains body with
  | Error reason ->
    missed ~name:"open-chain" "%s" reason;
    None
  | Ok [] -> None (* not a transfer loop *)
  | Ok chains -> (
    let unsupported =
      Array.exists
        (fun o -> not (is_send_like o || is_clonable_pure o || o.Ir.name = Accel.recv_name))
        body
    in
    let recvs = ref [] in
    Array.iteri (fun i o -> if o.Ir.name = Accel.recv_name then recvs := i :: !recvs) body;
    let recvs = List.rev !recvs in
    let p_end = (List.nth chains (List.length chains - 1)).ch_last in
    let used_vids = Hashtbl.create 64 in
    Array.iter
      (fun (o : Ir.op) ->
        List.iter (fun (v : Ir.value) -> Hashtbl.replace used_vids v.Ir.vid ()) o.Ir.operands)
      body;
    let recv_ok =
      List.for_all
        (fun i ->
          i > p_end
          && List.for_all
               (fun (r : Ir.value) -> not (Hashtbl.mem used_vids r.Ir.vid))
               body.(i).Ir.results)
        recvs
    in
    let roots_zero =
      List.for_all
        (fun c ->
          match body.(c.ch_first).Ir.operands with
          | [ _; offset ] -> const_int defs offset = Some 0
          | _ -> false)
        chains
    in
    if unsupported then begin
      missed ~name:"unsupported-op" "loop body has ops the pipeliner cannot reorder";
      None
    end
    else if List.length recvs > 1 || not recv_ok then begin
      missed ~name:"recv-shape"
        "need at most one trailing accel.recv with an unused offset result";
      None
    end
    else if not roots_zero then begin
      missed ~name:"chain-base" "a send chain does not start at staging offset 0";
      None
    end
    else
      match static_trip defs for_op with
      | None ->
        missed ~name:"non-static-bounds" "loop bounds are not static constants";
        None
      | Some (_, _, trip) when trip > max_unrolled_trip ->
        missed ~name:"trip-count" "trip count %d exceeds the unroll limit %d" trip
          max_unrolled_trip;
        None
      | Some (lb, step, trip) ->
        let max_chain = List.fold_left (fun acc c -> max acc c.ch_words) 0 chains in
        if max_chain > half_words then begin
          missed ~name:"buffer-capacity"
            "largest chain (%d words) does not fit a %d-word staging half" max_chain
            half_words;
          None
        end
        else begin
          let nchains = List.length chains in
          let total = trip * nchains in
          let is_first = Array.make n false and is_last = Array.make n false in
          List.iter
            (fun c ->
              is_first.(c.ch_first) <- true;
              is_last.(c.ch_last) <- true)
            chains;
          let b = Builder.create ctx in
          let tokens = Array.make total None in
          let fctr = ref 0 in
          let emit_wait g =
            match tokens.(g) with
            | Some tok -> Accel.wait b ~token:tok
            | None -> assert false
          in
          let lb_const = const_int defs lb in
          let iv_for j =
            match lb_const with
            | Some l -> Arith.constant_index b (l + (j * step))
            | None ->
              if j = 0 then lb else Arith.addi b lb (Arith.constant_index b (j * step))
          in
          let substs = Array.init trip (fun _ -> Hashtbl.create 16) in
          let lookup subst (v : Ir.value) =
            match Hashtbl.find_opt subst v.Ir.vid with Some v' -> v' | None -> v
          in
          let clone subst (o : Ir.op) =
            let operands = List.map (lookup subst) o.Ir.operands in
            let results =
              List.map
                (fun (v : Ir.value) ->
                  let v' = Builder.fresh b v.Ir.vty in
                  Hashtbl.replace subst v.Ir.vid v';
                  v')
                o.Ir.results
            in
            { o with Ir.operands; results }
          in
          (* P(j): iteration j's staging + token sends, ping/pong based. *)
          let emit_p j =
            let subst = substs.(j) in
            Hashtbl.replace subst iv.Ir.vid (iv_for j);
            for i = 0 to p_end do
              let o = body.(i) in
              if is_send_like o then begin
                if is_first.(i) && !fctr >= 2 then emit_wait (!fctr - 2);
                let o' = clone subst o in
                let o' =
                  if is_first.(i) then begin
                    let base = Arith.constant_i32 b (!fctr mod 2 * half_words) in
                    match o'.Ir.operands with
                    | [ payload; _ ] -> { o' with Ir.operands = [ payload; base ] }
                    | _ -> o'
                  end
                  else o'
                in
                let o' = if is_last.(i) then Ir.remove_attr o' "flush" else o' in
                Builder.emit b o';
                if is_last.(i) then begin
                  tokens.(!fctr) <- Some (Accel.start_send b);
                  incr fctr
                end
              end
              else Builder.emit b (clone subst o)
            done
          in
          (* C(j): iteration j's drain, as a start_recv/wait pair. *)
          let emit_c j =
            let subst = substs.(j) in
            for i = p_end + 1 to n - 1 do
              let o = body.(i) in
              if o.Ir.name = Accel.recv_name then begin
                let dst =
                  match o.Ir.operands with
                  | d :: _ -> lookup subst d
                  | [] -> invalid_arg "accel.recv: missing destination"
                in
                let tok = Accel.start_recv b ~mode:(Accel.recv_mode_of o) ~dst in
                Accel.wait b ~token:tok
              end
              else Builder.emit b (clone subst o)
            done
          in
          emit_p 0;
          for j = 1 to trip - 1 do
            emit_p j;
            emit_c (j - 1)
          done;
          emit_c (trip - 1);
          for g = max 0 (total - 2) to total - 1 do
            emit_wait g
          done;
          Remarks.emit ~kind:Remarks.Applied ~pass:pass_name ~name:"pipeline-loop"
            ~loc:"scf.for"
            ~args:
              [
                ("trip_count", Remarks.Int trip);
                ("chains_per_iteration", Remarks.Int nchains);
                ("tokens", Remarks.Int total);
                ("half_words", Remarks.Int half_words);
              ]
            (Printf.sprintf
               "unrolled %d iterations into %d ping/pong token transfers overlapping \
                compute"
               trip total);
          Some (Builder.finish b)
        end)

let has_db_attr (o : Ir.op) =
  o.Ir.name = Accel.dma_init_name
  && Ir.attr o "double_buffer" = Some (Attribute.Bool true)

let is_innermost_for (o : Ir.op) =
  o.Ir.name = Scf.for_name && Ir.count_ops (fun x -> x.Ir.name = Scf.for_name) o = 1

let rewrite_func ctx (f : Ir.op) =
  match Ir.find_ops has_db_attr f with
  | [] -> f
  | init :: _ ->
    let defs = Hashtbl.create 64 in
    Ir.walk
      (fun (o : Ir.op) ->
        List.iter (fun (r : Ir.value) -> Hashtbl.replace defs r.Ir.vid o) o.Ir.results)
      f;
    (* The staging halves split the input window of the dma_init that
       requested double buffering (sizes are bytes in the IR). *)
    let half_words =
      match init.Ir.operands with
      | [ _; _; in_size; _; _ ] -> (
        match const_int defs in_size with Some bytes -> bytes / 4 / 2 | None -> 0)
      | _ -> 0
    in
    if half_words <= 0 then begin
      missed ~name:"dma-window" "dma_init input window size is not a static constant";
      f
    end
    else begin
      let rec rw (o : Ir.op) : Ir.op list =
        if is_innermost_for o then
          match try_expand ~ctx ~defs ~half_words o with Some ops -> ops | None -> [ o ]
        else
          let regions =
            List.map
              (List.map (fun (blk : Ir.block) ->
                   { blk with Ir.body = List.concat_map rw blk.Ir.body }))
              o.Ir.regions
          in
          [ { o with Ir.regions } ]
      in
      match rw f with
      | [ f' ] -> f'
      | _ -> f
    end

let pass =
  Pass.make pass_name (fun m ->
      let ctx = Ir.context_of m in
      Ir.with_module_body m
        (List.map
           (fun (o : Ir.op) -> if Func.is_func o then rewrite_func ctx o else o)
           (Ir.module_body m)))
