type error = { failing_op : string; reason : string }

let error_to_string e = Printf.sprintf "op %s: %s" e.failing_op e.reason

let registry : (string, Ir.op -> (unit, string) result) Hashtbl.t = Hashtbl.create 64

let register_op_verifier name f = Hashtbl.replace registry name f

let ( let* ) r f = Result.bind r f

(* SSA check: walk the op tree keeping the set of visible value ids.
   Values defined in enclosing scopes are visible in nested regions
   (MLIR's default region semantics, which all our dialects use). *)
let check_ssa root =
  let defined : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  (* [ctx] is the op owning the definition site, so duplicate block-arg
     and result definitions alike point at a concrete op. *)
  let define ctx (v : Ir.value) =
    if Hashtbl.mem defined v.vid then
      Error { failing_op = ctx; reason = Printf.sprintf "value %%v%d defined twice" v.vid }
    else begin
      Hashtbl.add defined v.vid ();
      Ok ()
    end
  in
  let rec check_all f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      check_all f rest
  in
  let rec check_op (o : Ir.op) =
    let* () =
      check_all
        (fun (v : Ir.value) ->
          if Hashtbl.mem defined v.vid then Ok ()
          else
            Error
              {
                failing_op = o.name;
                reason = Printf.sprintf "use of undefined value %%v%d" v.vid;
              })
        o.operands
    in
    (* Regions see enclosing definitions but results only become visible
       after the op, so verify regions before defining results. *)
    let* () = check_all (check_region o.name) o.regions in
    check_all (define o.name) o.results
  and check_region ctx blocks = check_all (check_block ctx) blocks
  and check_block ctx (b : Ir.block) =
    let* () = check_all (define ctx) b.bargs in
    check_all check_op b.body
  in
  check_op root

(* Token linearity: every !accel.token-typed result must be consumed by
   exactly one op (in practice accel.wait / the dma_wait runtime call).
   Tokens are affine handles to in-flight hardware transfers — dropping
   one leaks a transfer the program never synchronised with, and waiting
   twice double-frees it. This is a whole-function check, so it lives
   here rather than in a per-op verifier. *)
let check_token_linearity root =
  let producers : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let uses : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Ir.walk
    (fun (o : Ir.op) ->
      List.iter
        (fun (v : Ir.value) ->
          if Ty.equal v.vty Ty.token then Hashtbl.replace producers v.vid o.name)
        o.results;
      List.iter
        (fun (v : Ir.value) ->
          if Ty.equal v.vty Ty.token then
            Hashtbl.replace uses v.vid
              (1 + Option.value ~default:0 (Hashtbl.find_opt uses v.vid)))
        o.operands)
    root;
  Hashtbl.fold
    (fun vid producer acc ->
      let* () = acc in
      match Option.value ~default:0 (Hashtbl.find_opt uses vid) with
      | 0 ->
        Error
          {
            failing_op = producer;
            reason = Printf.sprintf "token %%v%d is never waited" vid;
          }
      | 1 -> Ok ()
      | n ->
        Error
          {
            failing_op = producer;
            reason = Printf.sprintf "token %%v%d is consumed %d times (must be exactly once)" vid n;
          })
    producers (Ok ())

let verify_structured root =
  let* () = check_ssa root in
  let* () = check_token_linearity root in
  let failure = ref None in
  (try
     Ir.walk
       (fun o ->
         match Hashtbl.find_opt registry o.name with
         | None -> ()
         | Some f -> (
           match f o with
           | Ok () -> ()
           | Error msg ->
             failure := Some { failing_op = o.name; reason = msg };
             raise Exit))
       root
   with Exit -> ());
  match !failure with None -> Ok () | Some e -> Error e

let verify root = Result.map_error error_to_string (verify_structured root)

