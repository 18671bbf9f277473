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

let subview t ~offsets ~sizes =
  if List.length offsets <> rank t || List.length sizes <> rank t then
    invalid_arg "Memref_view.subview: rank mismatch";
  List.iter2
    (fun (off, size) extent ->
      if off < 0 || size < 0 || off + size > extent then
        invalid_arg
          (Printf.sprintf "Memref_view.subview: slice [%d, %d) exceeds extent %d" off
             (off + size) extent))
    (List.combine offsets sizes)
    t.shape;
  let offset =
    List.fold_left2 (fun acc off stride -> acc + (off * stride)) t.offset offsets t.strides
  in
  { t with offset; shape = sizes }

let linear_index t idxs =
  if List.length idxs <> rank t then invalid_arg "Memref_view.linear_index: rank mismatch";
  List.fold_left2
    (fun acc (i, extent) stride ->
      if i < 0 || i >= extent then
        invalid_arg (Printf.sprintf "Memref_view.linear_index: index %d out of extent %d" i extent);
      acc + (i * stride))
    t.offset
    (List.combine idxs t.shape)
    t.strides

let get t idxs = Sim_memory.get t.buf (linear_index t idxs)
let set t idxs v = Sim_memory.set t.buf (linear_index t idxs) v

(* The view splits into leading dims and trailing "run" dims whose
   elements are physically adjacent: [run_split] returns the first run
   dim and the run length. An innermost stride other than 1 leaves no
   run dims, so every element is a run of 1. *)
let run_split shape strides =
  let r = Array.length shape in
  let rec go dim run =
    if dim >= 0 && strides.(dim) = run then go (dim - 1) (run * shape.(dim))
    else (dim + 1, run)
  in
  if r = 0 || strides.(r - 1) <> 1 then (r, 1) else go (r - 1) 1

let iter_runs t f =
  let shape = Array.of_list t.shape in
  let strides = Array.of_list t.strides in
  let first_run_dim, run = run_split shape strides in
  let rec go dim base =
    if dim = first_run_dim then f base run
    else
      for i = 0 to shape.(dim) - 1 do
        go (dim + 1) (base + (i * strides.(dim)))
      done
  in
  if num_elements t > 0 then go 0 t.offset

let iter_linear t f =
  iter_runs t (fun base run ->
      for i = base to base + run - 1 do
        f i
      done)

let contiguous_run t = snd (run_split (Array.of_list t.shape) (Array.of_list t.strides))

let to_array t =
  let out = Array.make (num_elements t) 0.0 in
  let i = ref 0 in
  iter_linear t (fun li ->
      out.(!i) <- Sim_memory.get t.buf li;
      incr i);
  out

let fill_from t data =
  if Array.length data <> num_elements t then
    invalid_arg "Memref_view.fill_from: element count mismatch";
  let i = ref 0 in
  iter_linear t (fun li ->
      Sim_memory.set t.buf li data.(!i);
      incr i)
