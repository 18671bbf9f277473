type value = { vid : int; vty : Ty.t }

type op = {
  name : string;
  operands : value list;
  results : value list;
  attrs : (string * Attribute.t) list;
  regions : region list;
}

and block = { bargs : value list; body : op list }

and region = block list

type ctx = { mutable next : int }

let context () = { next = 0 }

let fresh_value ctx vty =
  let vid = ctx.next in
  ctx.next <- vid + 1;
  { vid; vty }

let op ?(operands = []) ?(results = []) ?(attrs = []) ?(regions = []) name =
  { name; operands; results; attrs; regions }

let block ?(args = []) body = { bargs = args; body }

let attr operation key = List.assoc_opt key operation.attrs

(* [List.assoc], not [attr]: the interpreter looks attributes up per
   executed op, and an option would be allocated on every lookup. *)
let attr_exn operation key =
  match List.assoc key operation.attrs with
  | a -> a
  | exception Not_found ->
    invalid_arg (Printf.sprintf "op %s: missing attribute '%s'" operation.name key)

let attr_or operation key default =
  match List.assoc key operation.attrs with a -> a | exception Not_found -> default

let set_attr operation key value =
  { operation with attrs = (key, value) :: List.remove_assoc key operation.attrs }

let remove_attr operation key =
  { operation with attrs = List.remove_assoc key operation.attrs }

let has_attr operation key = List.mem_assoc key operation.attrs

let result operation =
  match operation.results with
  | [ v ] -> v
  | results ->
    invalid_arg
      (Printf.sprintf "op %s: expected exactly one result, found %d" operation.name
         (List.length results))

let single_region_block = function
  | [ b ] -> b
  | blocks ->
    invalid_arg (Printf.sprintf "expected a single-block region, found %d blocks"
                   (List.length blocks))

let single_block operation =
  match operation.regions with
  | [ r ] -> single_region_block r
  | regions ->
    invalid_arg
      (Printf.sprintf "op %s: expected a single region, found %d" operation.name
         (List.length regions))

(* Explicit recursion: no closure or list per op. *)
let rec fold f acc operation = fold_regions f (f acc operation) operation.regions

and fold_regions f acc = function
  | [] -> acc
  | blocks :: rest -> fold_regions f (fold_blocks f acc blocks) rest

and fold_blocks f acc = function
  | [] -> acc
  | b :: rest -> fold_blocks f (fold_body f acc b.body) rest

and fold_body f acc = function
  | [] -> acc
  | o :: rest -> fold_body f (fold f acc o) rest

let walk f operation = fold (fun () o -> f o) () operation

let rec map_nested f operation =
  let regions =
    List.map
      (fun blocks ->
        List.map (fun b -> { b with body = List.map (map_nested f) b.body }) blocks)
      operation.regions
  in
  f { operation with regions }

let find_ops p operation =
  List.rev (fold (fun acc o -> if p o then o :: acc else acc) [] operation)

let count_ops p operation = fold (fun n o -> if p o then n + 1 else n) 0 operation

(* No closure here captures a variable: [vid_bound] allocates nothing. *)
let rec max_vid m = function [] -> m | v :: rest -> max_vid (Int.max m v.vid) rest
let max_bargs m r = List.fold_left (fun m b -> max_vid m b.bargs) m r
let max_op m o = List.fold_left max_bargs (max_vid (max_vid m o.operands) o.results) o.regions
let vid_bound operation = 1 + fold max_op (-1) operation

let context_of operation = { next = vid_bound operation }

let module_name = "builtin.module"

let module_op body = op module_name ~regions:[ [ block body ] ]

let is_module operation = operation.name = module_name

let module_body operation =
  if not (is_module operation) then
    invalid_arg (Printf.sprintf "expected builtin.module, found %s" operation.name);
  (single_block operation).body

let with_module_body operation body =
  if not (is_module operation) then
    invalid_arg (Printf.sprintf "expected builtin.module, found %s" operation.name);
  { operation with regions = [ [ block body ] ] }
