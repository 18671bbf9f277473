type t = {
  buf : Sim_memory.buffer;
  offset : int;
  shape : int list;
  strides : int list;
}

let identity_strides shape =
  let rec go = function
    | [] -> []
    | [ _ ] -> [ 1 ]
    | _ :: rest -> (
      let strides = go rest in
      match (strides, rest) with
      | s :: _, d :: _ -> (s * d) :: strides
      | _ -> assert false)
  in
  go shape

let of_buffer buf shape =
  let n = List.fold_left ( * ) 1 shape in
  if n <> Array.length buf.Sim_memory.data then
    invalid_arg
      (Printf.sprintf "Memref_view.of_buffer: shape has %d elements, buffer %s has %d" n
         buf.Sim_memory.label
         (Array.length buf.Sim_memory.data));
  { buf; offset = 0; shape; strides = identity_strides shape }

let rank t = List.length t.shape
let num_elements t = List.fold_left ( * ) 1 t.shape

(* Views keep their shape and strides as the lists the IR types use.
   Every walk below is a closed recursive function over those lists, so
   none allocates: no array, tuple or closure is built per call. *)

let rec slice_offset offset env xs sizes shape strides acc =
  match (xs, sizes, shape, strides) with
  | x :: xs, size :: sizes, extent :: shape, stride :: strides ->
    let off = offset env x in
    if off < 0 || size < 0 || off + size > extent then
      invalid_arg
        (Printf.sprintf "Memref_view.subview: slice [%d, %d) exceeds extent %d" off
           (off + size) extent);
    slice_offset offset env xs sizes shape strides (acc + (off * stride))
  | _ -> acc

let subview_with t offset env xs ~sizes =
  if List.compare_lengths xs t.shape <> 0 || List.compare_lengths sizes t.shape <> 0 then
    invalid_arg "Memref_view.subview: rank mismatch";
  { t with offset = slice_offset offset env xs sizes t.shape t.strides t.offset; shape = sizes }

let subview t ~offsets ~sizes = subview_with t (fun () off -> off) () offsets ~sizes

let rec element_index index env xs shape strides acc =
  match (xs, shape, strides) with
  | x :: xs, extent :: shape, stride :: strides ->
    let i = index env x in
    if i < 0 || i >= extent then
      invalid_arg
        (Printf.sprintf "Memref_view.linear_index: index %d out of extent %d" i extent);
    element_index index env xs shape strides (acc + (i * stride))
  | _ -> acc

let linear_index_with t index env xs =
  if List.compare_lengths xs t.shape <> 0 then
    invalid_arg "Memref_view.linear_index: rank mismatch";
  element_index index env xs t.shape t.strides t.offset

let linear_index t idxs = linear_index_with t (fun () i -> i) () idxs
let get t idxs = Sim_memory.get t.buf (linear_index t idxs)
let set t idxs v = Sim_memory.set t.buf (linear_index t idxs) v

(* The view splits into leading dims and trailing "run" dims whose
   elements are physically adjacent. [suffix_run] is the element count
   of a dim suffix whose dims all belong to the run, -1 when one does
   not: a dim belongs when its stride is the count of the dims inside
   it, so an innermost stride other than 1 leaves no run dims and every
   element is a run of 1. *)
let rec suffix_run shape strides =
  match (shape, strides) with
  | extent :: shape, stride :: strides ->
    let inner = suffix_run shape strides in
    if inner >= 0 && stride = inner then inner * extent else -1
  | _ -> 1

(* The number of leading dims, and the run below them. *)
let rec leading_dims shape strides =
  match (shape, strides) with
  | _ :: shape', _ :: strides' when suffix_run shape strides < 0 ->
    1 + leading_dims shape' strides'
  | _ -> 0

let rec run_below lead shape strides =
  match (shape, strides) with
  | _ :: shape, _ :: strides when lead > 0 -> run_below (lead - 1) shape strides
  | _ -> suffix_run shape strides

let contiguous_run t = run_below (leading_dims t.shape t.strides) t.shape t.strides

(* The leading dims down to the innermost one whose extent is not 1:
   the dims below it add nothing to a run's start, so that one is the
   row dim. One call of the run function covers a block: the runs of a
   row, and the rows of the leading dim above the row dim. *)
let rec row_depth lead shape =
  match shape with
  | extent :: shape when lead > 0 ->
    let inner = row_depth (lead - 1) shape in
    if inner > 0 || extent <> 1 then inner + 1 else 0
  | _ -> 0

let rec walk_blocks f a b t depth shape strides base run acc =
  match (shape, strides) with
  | extent :: shape, stride :: strides ->
    if depth = 1 then f a b t base run extent stride 1 0 acc
    else if depth = 2 then
      match (shape, strides) with
      | count :: _, row_stride :: _ -> f a b t base run count row_stride extent stride acc
      | _ -> acc
    else begin
      let acc = ref acc in
      for i = 0 to extent - 1 do
        acc := walk_blocks f a b t (depth - 1) shape strides (base + (i * stride)) run !acc
      done;
      !acc
    end
  | _ -> acc

let fold_runs t f a b acc =
  if num_elements t = 0 then acc
  else
    let lead = leading_dims t.shape t.strides in
    let run = run_below lead t.shape t.strides in
    let depth = row_depth lead t.shape in
    if depth = 0 then f a b t t.offset run 1 0 1 0 acc
    else walk_blocks f a b t depth t.shape t.strides t.offset run acc

let iter_runs t f =
  fold_runs t
    (fun f () _ start len count stride rows row_stride () ->
      for r = 0 to rows - 1 do
        let row = start + (r * row_stride) in
        for k = 0 to count - 1 do
          f (row + (k * stride)) len
        done
      done)
    f () ()

let to_array t =
  let out = Array.make (num_elements t) 0.0 in
  let i = ref 0 in
  iter_runs t (fun start len ->
      Array.blit t.buf.Sim_memory.data start out !i len;
      i := !i + len);
  out

let fill_from t data =
  if Array.length data <> num_elements t then
    invalid_arg "Memref_view.fill_from: element count mismatch";
  let i = ref 0 in
  iter_runs t (fun start len ->
      Array.blit data !i t.buf.Sim_memory.data start len;
      i := !i + len)
