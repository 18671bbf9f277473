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

let counter = ref 0

let fresh_value vty =
  incr counter;
  { vid = !counter; vty }

let op ?(operands = []) ?(results = []) ?(attrs = []) ?(regions = []) name =
  { name; operands; results; attrs; regions }

let block ?(args = []) body = { bargs = args; body }
let region blocks = blocks

let attr operation key = List.assoc_opt key operation.attrs

let attr_exn operation key =
  match attr operation key with
  | Some a -> a
  | None ->
    invalid_arg (Printf.sprintf "op %s: missing attribute '%s'" operation.name key)

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

let rec walk f operation =
  f operation;
  List.iter (fun r -> List.iter (walk_block f) r) operation.regions

and walk_block f b = List.iter (walk f) b.body

let rec map_nested f operation =
  let regions =
    List.map
      (fun blocks ->
        List.map (fun b -> { b with body = List.map (map_nested f) b.body }) blocks)
      operation.regions
  in
  f { operation with regions }

let find_ops p operation =
  let acc = ref [] in
  walk (fun o -> if p o then acc := o :: !acc) operation;
  List.rev !acc

let count_ops p operation = List.length (find_ops p operation)

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
