type error = { failing_op : string; reason : string }

let error_to_string e = Printf.sprintf "op %s: %s" e.failing_op e.reason

let registry : (string, Ir.op -> (unit, string) result) Hashtbl.t = Hashtbl.create 64

let register_op_verifier name f = Hashtbl.replace registry name f

(* Per-domain scratch for one verification: an open-addressed table of
   the values defined so far, keyed by vid with linear probing, and a
   stack of the slots defined in the blocks still open.

   A slot's mark is [live] for a plain value in scope, the number of
   uses so far for a token in scope, or [dead] once its block has
   ended. Dead entries stay in the table, so a value id defined twice
   anywhere in the module is still caught. [producer] points at the
   name of the op that made a token (shared, not copied).

   The table is sized by the module's value count, not by vid: vids
   come from a process-wide counter and grow without bound. *)
let live = -1
let dead = -2

type scratch = {
  mutable mask : int;  (* slots in use this call, minus one (a power of two) *)
  mutable keys : int array;  (* vid, or 0 for an empty slot: vids start at 1 *)
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
      {
        mask = 0;
        keys = [||];
        marks = [||];
        producer = [||];
        stack = [||];
        top = 0;
        error = None;
        error_class = no_error;
      })

let rec bargs_in n = function
  | [] -> n
  | (b : Ir.block) :: rest -> bargs_in (n + List.length b.bargs) rest

let count_values root =
  Ir.fold
    (fun n (o : Ir.op) -> List.fold_left bargs_in (n + List.length o.results) o.regions)
    0 root

(* At most half full, so a probe always meets an empty slot. *)
let reset t root =
  let values = count_values root in
  let cap = ref 16 in
  while !cap < 2 * values do
    cap := 2 * !cap
  done;
  let cap = !cap in
  if Array.length t.keys < cap then begin
    t.keys <- Array.make cap 0;
    t.marks <- Array.make cap 0;
    t.producer <- Array.make cap "";
    t.stack <- Array.make cap 0
  end
  else Array.fill t.keys 0 cap 0;
  t.mask <- cap - 1;
  t.top <- 0;
  t.error <- None;
  t.error_class <- no_error

let hash t vid =
  let h = vid * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land t.mask

(* The slot holding [vid], or the empty slot where it would go. *)
let rec probe t vid s =
  let k = t.keys.(s) in
  if k = vid || k = 0 then s else probe t vid ((s + 1) land t.mask)

(* Keep the first error of the earliest class. *)
let fail t cls failing_op reason =
  if cls < t.error_class then begin
    t.error <- Some { failing_op; reason };
    t.error_class <- cls
  end

(* [ctx] is the op owning the definition site, so duplicate block-arg
   and result definitions alike point at a concrete op. Only results
   carry the token-linearity obligation; [ctx] is then their producer. *)
let define t ctx ~result (v : Ir.value) =
  let s = probe t v.vid (hash t v.vid) in
  if t.keys.(s) <> 0 then
    fail t ssa ctx (Printf.sprintf "value %%v%d defined twice" v.vid)
  else begin
    t.keys.(s) <- v.vid;
    if result && Ty.equal v.vty Ty.token then begin
      t.marks.(s) <- 0;
      t.producer.(s) <- ctx
    end
    else t.marks.(s) <- live;
    t.stack.(t.top) <- s;
    t.top <- t.top + 1
  end

let rec define_all t ctx ~result = function
  | [] -> ()
  | v :: rest ->
    define t ctx ~result v;
    define_all t ctx ~result rest

let rec use_all t (o : Ir.op) = function
  | [] -> ()
  | (v : Ir.value) :: rest ->
    let s = probe t v.vid (hash t v.vid) in
    let mark = t.marks.(s) in
    if t.keys.(s) = 0 || mark = dead then
      fail t ssa o.name (Printf.sprintf "use of undefined value %%v%d" v.vid)
    else if mark >= 0 then t.marks.(s) <- mark + 1;
    use_all t o rest

(* Token linearity: every !accel.token-typed result must be consumed by
   exactly one op (in practice accel.wait / the dma_wait runtime call).
   Tokens are affine handles to in-flight hardware transfers — dropping
   one leaks a transfer the program never synchronised with, and waiting
   twice double-frees it. Every use lies in the token's scope, so the
   count is final when the scope ends. *)
let check_token t s =
  let uses = t.marks.(s) and vid = t.keys.(s) in
  if uses <> 1 then
    fail t token t.producer.(s)
      (if uses = 0 then Printf.sprintf "token %%v%d is never waited" vid
       else Printf.sprintf "token %%v%d is consumed %d times (must be exactly once)" vid uses)

(* End the scope that began at stack height [base]. *)
let pop t base =
  for i = base to t.top - 1 do
    let s = t.stack.(i) in
    if t.marks.(s) >= 0 then check_token t s;
    t.marks.(s) <- dead
  done;
  t.top <- base

(* Per-op verifiers run in pre-order until the first error of any
   class: a later one could not be the error reported. *)
let run_op_verifier t (o : Ir.op) =
  if t.error == None then
    match Hashtbl.find registry o.name with
    | exception Not_found -> ()
    | f -> (
      match f o with
      | Ok () -> ()
      | Error reason | (exception Invalid_argument reason) -> fail t per_op o.name reason)

(* Operands are checked against the values visible before the op; its
   regions see every enclosing definition; its results become visible
   after it, for the rest of the enclosing block. *)
let rec check_op t (o : Ir.op) =
  use_all t o o.operands;
  run_op_verifier t o;
  check_regions t o.name o.regions;
  define_all t o.name ~result:true o.results

and check_regions t ctx = function
  | [] -> ()
  | blocks :: rest ->
    check_blocks t ctx blocks;
    check_regions t ctx rest

and check_blocks t ctx = function
  | [] -> ()
  | (b : Ir.block) :: rest ->
    let base = t.top in
    define_all t ctx ~result:false b.bargs;
    check_body t b.body;
    pop t base;
    check_blocks t ctx rest

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
  match t.error with
  | None -> Ok ()
  | Some e ->
    t.error <- None;
    Error e

let verify root = Result.map_error error_to_string (verify_structured root)
