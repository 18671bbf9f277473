exception Mismatch of string

(* The bijection between the two sides' value ids, built as definitions
   are encountered and checked at every use: indexed by vid, sized by
   [Ir.vid_bound], -1 for an id not yet bound. *)
type ctx = { fwd : int array; bwd : int array }

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let bind ctx (a : Ir.value) (b : Ir.value) =
  if not (Ty.equal a.vty b.vty) then
    fail "value types differ: %s vs %s" (Ty.to_string a.vty) (Ty.to_string b.vty);
  let prior = ctx.fwd.(a.vid) in
  if prior >= 0 && prior <> b.vid then fail "value %%v%d rebound inconsistently" a.vid;
  let prior = ctx.bwd.(b.vid) in
  if prior >= 0 && prior <> a.vid then fail "value %%v%d matched twice" b.vid;
  ctx.fwd.(a.vid) <- b.vid;
  ctx.bwd.(b.vid) <- a.vid

let check_use ctx (a : Ir.value) (b : Ir.value) =
  let expected = ctx.fwd.(a.vid) in
  if expected < 0 then fail "operand %%v%d used before definition on one side" a.vid
  else if expected <> b.vid then fail "operand %%v%d maps to a different value" a.vid

let rec compare_op ctx (a : Ir.op) (b : Ir.op) =
  if a.name <> b.name then fail "op names differ: %s vs %s" a.name b.name;
  if List.length a.operands <> List.length b.operands then
    fail "op %s: operand counts differ" a.name;
  List.iter2 (check_use ctx) a.operands b.operands;
  let sort_attrs attrs = List.sort (fun (k, _) (k', _) -> compare k k') attrs in
  let attrs_a = sort_attrs a.attrs and attrs_b = sort_attrs b.attrs in
  if List.length attrs_a <> List.length attrs_b then
    fail "op %s: attribute counts differ" a.name;
  List.iter2
    (fun (ka, va) (kb, vb) ->
      if ka <> kb then fail "op %s: attribute keys differ (%s vs %s)" a.name ka kb;
      if not (Attribute.equal va vb) then
        fail "op %s: attribute %s differs: %s vs %s" a.name ka (Attribute.to_string va)
          (Attribute.to_string vb))
    attrs_a attrs_b;
  if List.length a.regions <> List.length b.regions then
    fail "op %s: region counts differ" a.name;
  List.iter2 (compare_region ctx a.name) a.regions b.regions;
  if List.length a.results <> List.length b.results then
    fail "op %s: result counts differ" a.name;
  List.iter2 (bind ctx) a.results b.results

and compare_region ctx opname (ra : Ir.region) (rb : Ir.region) =
  if List.length ra <> List.length rb then fail "op %s: block counts differ" opname;
  List.iter2
    (fun (ba : Ir.block) (bb : Ir.block) ->
      if List.length ba.bargs <> List.length bb.bargs then
        fail "op %s: block argument counts differ" opname;
      List.iter2 (bind ctx) ba.bargs bb.bargs;
      if List.length ba.body <> List.length bb.body then
        fail "op %s: block op counts differ (%d vs %d)" opname (List.length ba.body)
          (List.length bb.body);
      List.iter2 (compare_op ctx) ba.body bb.body)
    ra rb

let diff_op a b =
  let bound op = Array.make (Ir.vid_bound op) (-1) in
  let ctx = { fwd = bound a; bwd = bound b } in
  match compare_op ctx a b with () -> None | exception Mismatch msg -> Some msg

let equal_op a b = diff_op a b = None
