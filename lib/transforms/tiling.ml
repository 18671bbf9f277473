let ( let* ) r f = Result.bind r f

(* Effective per-dimension extent inside one accelerator tile. *)
let effective_extent ~ranges ~accel_dim d =
  let tile = List.nth accel_dim d in
  if tile > 0 then tile else List.nth ranges d

(* Extent of one operand-index expression inside a tile: a window of
   [1 + sum (eff_d - 1)] elements (exact for the Dim and Add(Dim, Dim)
   forms the supported ops use). *)
let rec expr_tile_extent ~ranges ~accel_dim = function
  | Affine_map.Dim d -> effective_extent ~ranges ~accel_dim d
  | Affine_map.Cst _ -> 1
  | Affine_map.Add (x, y) ->
    expr_tile_extent ~ranges ~accel_dim x + expr_tile_extent ~ranges ~accel_dim y - 1
  | Affine_map.Mul (Affine_map.Cst s, e) | Affine_map.Mul (e, Affine_map.Cst s) ->
    (* a stride-s window over [ext] points spans s*(ext-1)+1 elements *)
    (s * (expr_tile_extent ~ranges ~accel_dim e - 1)) + 1
  | Affine_map.Mul _ ->
    invalid_arg "Tiling: only constant-stride multiplicative indexing is supported"

let tile_extent_of_expr ~ranges ~accel_dim expr = expr_tile_extent ~ranges ~accel_dim expr

let operand_tile_elems ~maps ~ranges ~accel_dim =
  List.map
    (fun (m : Affine_map.t) ->
      List.fold_left
        (fun acc expr -> acc * expr_tile_extent ~ranges ~accel_dim expr)
        1 m.exprs)
    maps

let check_buffers (config : Accel_config.t) ~maps ~ranges ~accel_dim =
  let per_operand = operand_tile_elems ~maps ~ranges ~accel_dim in
  if List.exists (fun n -> n > config.buffer_capacity_elems) per_operand then
    Error
      (Printf.sprintf "an operand tile (%s elements) exceeds the buffer capacity %d"
         (Util.string_of_list string_of_int per_operand)
         config.buffer_capacity_elems)
  else Ok ()

(* Test-only fault injection. [Off_by_one_first_tile] widens the first
   multi-tile host dimension by one element *after* all validation, the
   way a real tiling bug would slip past the checks. The differential
   fuzzer's acceptance test flips this on to prove the oracle catches
   and shrinks such a bug, then reverts it. Never set outside tests. *)
type fault = No_fault | Off_by_one_first_tile

let fault = ref No_fault

let apply_fault ~ranges tiles =
  match !fault with
  | No_fault -> tiles
  | Off_by_one_first_tile ->
    let applied = ref false in
    List.map2
      (fun t extent ->
        if (not !applied) && t > 0 && extent > t then begin
          applied := true;
          t + 1
        end
        else t)
      tiles ranges

let resolve_accel_dims (config : Accel_config.t) ~maps ~ranges ?tile_override () =
  let n = List.length config.accel_dims in
  let* () =
    if List.length ranges = n then Ok ()
    else Error (Printf.sprintf "expected %d iteration dims, found %d" n (List.length ranges))
  in
  let* tiles =
    match tile_override with
    | None ->
      Ok
        (List.map2
           (fun base extent ->
             if base = 0 then 0 else if base > extent then -1 else base)
           config.accel_dims ranges)
    | Some override_tiles ->
      if not config.flexible then
        Error "tile_override is only valid for flexible accelerators"
      else if List.length override_tiles <> n then
        Error "tile_override arity mismatch"
      else if List.exists (fun t -> t < 1) override_tiles then
        Error
          (Printf.sprintf "tile sizes must be >= 1 (tiles: %s)"
             (Util.string_of_list string_of_int override_tiles))
      else
        Ok
          (List.map2
             (fun (base, t) extent ->
               if base = 0 then 0 else if t > extent then -1 else t)
             (List.combine config.accel_dims override_tiles)
             ranges)
  in
  let* () =
    if List.mem (-1) tiles then
      Error "problem extent is smaller than the accelerator tile"
    else Ok ()
  in
  let* () =
    match
      List.find_opt
        (fun ((base, t), extent) ->
          base > 0 && (t mod base <> 0 || extent mod t <> 0))
        (List.combine (List.combine config.accel_dims tiles) ranges)
    with
    | None -> Ok ()
    | Some ((base, t), extent) ->
      Error
        (Printf.sprintf
           "tile sizes must be multiples of the accelerator granularity and divide the \
            problem extents: tile %d %s (tiles: %s, extents: %s)"
           t
           (if t mod base <> 0 then
              Printf.sprintf "is not a multiple of granularity %d" base
            else Printf.sprintf "does not divide extent %d" extent)
           (Util.string_of_list string_of_int tiles)
           (Util.string_of_list string_of_int ranges))
  in
  let* () = check_buffers config ~maps ~ranges ~accel_dim:tiles in
  Ok (apply_fault ~ranges tiles)

let derive_permutation ~flow ~opcode_map ~maps ~accel_dim =
  let n = List.length accel_dim in
  let host d = List.nth accel_dim d > 0 in
  let depth_max = Opcode.flow_depth flow + 1 in
  let levels = Array.make n depth_max in
  let dims_of_arg arg =
    match List.nth_opt maps arg with
    | None -> []
    | Some m ->
      let rec dims = function
        | Affine_map.Dim d -> [ d ]
        | Affine_map.Cst _ -> []
        | Affine_map.Add (x, y) | Affine_map.Mul (x, y) -> dims x @ dims y
      in
      List.concat_map dims m.Affine_map.exprs
  in
  List.iter
    (fun (key, depth) ->
      match Opcode.find opcode_map key with
      | None -> ()
      | Some entry ->
        let args =
          Opcode.sends_of_actions entry.actions @ Opcode.recvs_of_actions entry.actions
        in
        List.iter
          (fun arg ->
            List.iter
              (fun d -> if host d && depth < levels.(d) then levels.(d) <- depth)
              (dims_of_arg arg))
          args)
    (Opcode.flow_placements flow);
  let host_dims = List.filter host (Util.range n) in
  let absorbed = List.filter (fun d -> not (host d)) (Util.range n) in
  let sorted = List.stable_sort (fun a b -> compare levels.(a) levels.(b)) host_dims in
  sorted @ absorbed

let safe_cpu_tiling_dims ~flow ~opcode_map ~maps ~accel_dim =
  let n = List.length accel_dim in
  let host d = List.nth accel_dim d > 0 in
  let host_dims = List.filter host (Util.range n) in
  let flow_d = Opcode.flow_depth flow in
  let dims_of_arg arg =
    match List.nth_opt maps arg with
    | None -> []
    | Some m ->
      let rec dims = function
        | Affine_map.Dim d -> [ d ]
        | Affine_map.Cst _ -> []
        | Affine_map.Add (x, y) | Affine_map.Mul (x, y) -> dims x @ dims y
      in
      List.concat_map dims m.Affine_map.exprs
  in
  let hoisted_deps =
    List.filter_map
      (fun (key, depth) ->
        if depth >= flow_d then None
        else
          match Opcode.find opcode_map key with
          | None -> None
          | Some entry ->
            let args =
              Opcode.sends_of_actions entry.actions @ Opcode.recvs_of_actions entry.actions
            in
            if args = [] then None
            else Some (List.sort_uniq compare (List.concat_map dims_of_arg args)))
      (Opcode.flow_placements flow)
  in
  List.filter
    (fun d -> List.for_all (fun deps -> List.mem d deps) hoisted_deps)
    host_dims

let choose_cpu_tiles (host : Host_config.t) ~ranges ~accel_dim ~safe_dims ~footprint_bytes =
  let llc = Host_config.last_level_cache_bytes host in
  if llc = 0 || footprint_bytes <= llc then List.map (fun _ -> 0) ranges
  else begin
    (* Three f32 operand blocks of TxT must fit half of the LLC, so
       the repeatedly-copied working set stops thrashing to DRAM. *)
    let target = int_of_float (sqrt (float_of_int llc /. (2.0 *. 3.0 *. 4.0))) in
    (* Once the working set far exceeds the LLC, every streamed operand
       re-reads from DRAM and the extra transfers caused by tiling a
       dimension a hoisted opcode does not depend on are second-order:
       a stationary tile re-sent LLC-resident costs far less than the
       per-line DRAM penalty it removes from the streams. *)
    let tile_unsafe_too = footprint_bytes > 2 * llc in
    List.mapi
      (fun d (tile, extent) ->
        if tile <= 0 || not (tile_unsafe_too || List.mem d safe_dims) then 0
        else begin
          (* Largest multiple of the accelerator tile, at most the
             target, that divides the extent (so the two-level loop
             nest stays exact). *)
          let rec find t =
            if t <= tile then 0 else if extent mod t = 0 then t else find (t - tile)
          in
          let t = find (target / tile * tile) in
          if t <= tile || t >= extent then 0 else t
        end)
      (List.combine accel_dim ranges)
  end
