type error = { failing_op : string; reason : string }

let error_to_string e = Printf.sprintf "op %s: %s" e.failing_op e.reason

(* Every dialect's per-op check, chosen by the op name; a name no
   dialect checks passes. *)
let verify_op (o : Ir.op) =
  match o.name with
  | "func.func" -> Func.verify_func o
  | "func.call" -> Func.verify_call o
  | "arith.constant" -> Arith.verify_constant o
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.addf" | "arith.mulf" ->
    Arith.verify_binop o
  | "memref.alloc" -> Memref_d.verify_alloc o
  | "memref.subview" -> Memref_d.verify_subview o
  | "memref.load" -> Memref_d.verify_load o
  | "memref.store" -> Memref_d.verify_store o
  | "scf.for" -> Scf.verify_for o
  | "linalg.generic" -> Linalg.verify_generic o
  | "accel.dma_init" -> Accel.verify_dma_init o
  | "accel.send" | "accel.sendDim" | "accel.recv" -> Accel.verify_offset_chain ~data:true o
  | "accel.sendLiteral" | "accel.sendIdx" -> Accel.verify_offset_chain ~data:false o
  | "accel.start_send" -> Accel.verify_start_send o
  | "accel.start_recv" -> Accel.verify_start_recv o
  | "accel.wait" -> Accel.verify_wait o
  | _ -> Ok ()

(* Per-domain scratch for one verification: a mark per value id, and
   a stack of the ids defined in the blocks still open. Ids are dense
   per module, so the arrays are indexed by vid and sized by
   [Ir.vid_bound] of the root.

   A mark is [unseen] before the id's definition, [live] for a plain
   value in scope, the number of uses so far for a token in scope, or
   [dead] once its block has ended. Dead ids stay marked, so a value id
   defined twice anywhere in the module is still caught. [producer]
   points at the name of the op that made a token (shared, not
   copied). *)
let live = -1
let dead = -2
let unseen = -3

type scratch = {
  mutable marks : int array;
  mutable producer : string array;
  mutable stack : int array;
  mutable top : int;
  mutable error : error option;
  mutable error_class : int;
}

(* Error classes in reporting order: the first SSA error in walk order
   wins, then a token error, then the first per-op verifier error. *)
let ssa = 0
let token = 1
let per_op = 2
let no_error = 3

let scratch =
  Domain.DLS.new_key (fun () ->
      { marks = [||]; producer = [||]; stack = [||]; top = 0; error = None; error_class = no_error })

let reset t root =
  let bound = Ir.vid_bound root in
  if Array.length t.marks < bound then begin
    t.marks <- Array.make bound unseen;
    t.producer <- Array.make bound "";
    t.stack <- Array.make bound 0
  end;
  Array.fill t.marks 0 bound unseen;
  t.top <- 0;
  t.error <- None;
  t.error_class <- no_error

(* Keep the first error of the earliest class. *)
let fail t cls failing_op reason =
  if cls < t.error_class then begin
    t.error <- Some { failing_op; reason };
    t.error_class <- cls
  end

(* [owner] names the op owning the definition site, so duplicate block-arg
   and result definitions alike point at a concrete op. Only results
   carry the token-linearity obligation; [owner] is then their producer. *)
let define t owner ~result (v : Ir.value) =
  if t.marks.(v.vid) <> unseen then
    fail t ssa owner (Printf.sprintf "value %%v%d defined twice" v.vid)
  else begin
    if result && Ty.equal v.vty Ty.token then begin
      t.marks.(v.vid) <- 0;
      t.producer.(v.vid) <- owner
    end
    else t.marks.(v.vid) <- live;
    t.stack.(t.top) <- v.vid;
    t.top <- t.top + 1
  end

let rec define_all t owner ~result = function
  | [] -> ()
  | v :: rest ->
    define t owner ~result v;
    define_all t owner ~result rest

let rec use_all t (o : Ir.op) = function
  | [] -> ()
  | (v : Ir.value) :: rest ->
    let mark = t.marks.(v.vid) in
    if mark = unseen || mark = dead then
      fail t ssa o.name (Printf.sprintf "use of undefined value %%v%d" v.vid)
    else if mark >= 0 then t.marks.(v.vid) <- mark + 1;
    use_all t o rest

(* Token linearity: every !accel.token-typed result must be consumed by
   exactly one op (in practice accel.wait / the dma_wait runtime call).
   Tokens are affine handles to in-flight hardware transfers — dropping
   one leaks a transfer the program never synchronised with, and waiting
   twice double-frees it. Every use lies in the token's scope, so the
   count is final when the scope ends. *)
let check_token t vid =
  let uses = t.marks.(vid) in
  if uses <> 1 then
    fail t token t.producer.(vid)
      (if uses = 0 then Printf.sprintf "token %%v%d is never waited" vid
       else Printf.sprintf "token %%v%d is consumed %d times (must be exactly once)" vid uses)

(* End the scope that began at stack height [base]. *)
let pop t base =
  for i = base to t.top - 1 do
    let vid = t.stack.(i) in
    if t.marks.(vid) >= 0 then check_token t vid;
    t.marks.(vid) <- dead
  done;
  t.top <- base

(* Per-op verifiers run in pre-order until the first error of any
   class: a later one could not be the error reported. *)
let run_op_verifier t (o : Ir.op) =
  if t.error == None then
    match verify_op o with
    | Ok () -> ()
    | Error reason | (exception Invalid_argument reason) -> fail t per_op o.name reason

(* Operands are checked against the values visible before the op; its
   regions see every enclosing definition; its results become visible
   after it, for the rest of the enclosing block. *)
let rec check_op t (o : Ir.op) =
  use_all t o o.operands;
  run_op_verifier t o;
  check_regions t o.name o.regions;
  define_all t o.name ~result:true o.results

and check_regions t owner = function
  | [] -> ()
  | blocks :: rest ->
    check_blocks t owner blocks;
    check_regions t owner rest

and check_blocks t owner = function
  | [] -> ()
  | (b : Ir.block) :: rest ->
    let base = t.top in
    define_all t owner ~result:false b.bargs;
    check_body t b.body;
    pop t base;
    check_blocks t owner rest

and check_body t = function
  | [] -> ()
  | o :: rest ->
    check_op t o;
    check_body t rest

let verify_structured root =
  let t = Domain.DLS.get scratch in
  reset t root;
  check_op t root;
  (* the root's own results are in an outer scope of their own *)
  pop t 0;
  match t.error with None -> Ok () | Some e -> Error e

let verify root = Result.map_error error_to_string (verify_structured root)
