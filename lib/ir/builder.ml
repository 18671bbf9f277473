type t = { ctx : Ir.ctx; mutable stack : Ir.op list ref list }

let create ctx = { ctx; stack = [ ref [] ] }
let ctx b = b.ctx
let fresh b ty = Ir.fresh_value b.ctx ty

let top b =
  match b.stack with
  | cell :: _ -> cell
  | [] -> invalid_arg "Builder: empty insertion stack"

let emit b operation =
  let cell = top b in
  cell := operation :: !cell

let emit_result b operation =
  emit b operation;
  Ir.result operation

let nest b f =
  let cell = ref [] in
  b.stack <- cell :: b.stack;
  let pop () =
    match b.stack with
    | _ :: rest -> b.stack <- rest
    | [] -> assert false
  in
  (try f ()
   with exn ->
     pop ();
     raise exn);
  pop ();
  List.rev !cell

let finish b =
  match b.stack with
  | [ cell ] -> List.rev !cell
  | _ -> invalid_arg "Builder.finish: called inside a nest"
