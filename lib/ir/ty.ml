type dtype = F32 | F64 | I1 | I8 | I32 | I64 | Index

type memref = {
  shape : int list;
  elem : dtype;
  offset : int;
  strides : int list;
}

type t = Scalar of dtype | Memref of memref | Func of t list * t list | Token

let f32 = Scalar F32
let f64 = Scalar F64
let i1 = Scalar I1
let i8 = Scalar I8
let i32 = Scalar I32
let i64 = Scalar I64
let index = Scalar Index
let token = Token

let scalar = function
  | F32 -> f32
  | F64 -> f64
  | I1 -> i1
  | I8 -> i8
  | I32 -> i32
  | I64 -> i64
  | Index -> index

let dtype_size_bytes = function
  | F32 | I32 -> 4
  | F64 | I64 | Index -> 8
  | I8 | I1 -> 1

let identity_strides shape =
  (* Row-major: stride of dim i is the product of all later extents. *)
  let rec go = function
    | [] -> []
    | [ _ ] -> [ 1 ]
    | _ :: rest ->
      let strides = go rest in
      (match strides, rest with
      | s :: _, d :: _ -> (s * d) :: strides
      | _, _ -> assert false)
  in
  go shape

let memref ?(offset = 0) ?strides shape elem =
  let strides = match strides with Some s -> s | None -> identity_strides shape in
  if List.length strides <> List.length shape then
    invalid_arg "Ty.memref: strides rank does not match shape rank";
  Memref { shape; elem; offset; strides }

let memref_of = function
  | Memref m -> m
  | Scalar _ | Func _ | Token -> invalid_arg "Ty.memref_of: not a memref type"

let rank m = List.length m.shape
let num_elements m = List.fold_left ( * ) 1 m.shape

let dynamic_offset = min_int

let dynamic_subview_type m ~sizes =
  if List.length sizes <> rank m then invalid_arg "Ty.dynamic_subview_type: rank mismatch";
  Memref { shape = sizes; elem = m.elem; offset = dynamic_offset; strides = m.strides }

let is_identity_layout m = m.offset = 0 && m.strides = identity_strides m.shape

let is_contiguous_innermost m =
  match List.rev m.strides with [] -> true | s :: _ -> s = 1

let subview_type m ~offsets ~sizes =
  if List.length offsets <> rank m || List.length sizes <> rank m then
    invalid_arg "Ty.subview_type: rank mismatch";
  List.iter2
    (fun (off, size) extent ->
      if off < 0 || size < 0 || off + size > extent then
        invalid_arg
          (Printf.sprintf "Ty.subview_type: slice [%d, %d) exceeds extent %d" off
             (off + size) extent))
    (List.combine offsets sizes)
    m.shape;
  let offset =
    List.fold_left2 (fun acc off stride -> acc + (off * stride)) m.offset offsets m.strides
  in
  Memref { shape = sizes; elem = m.elem; offset; strides = m.strides }

let dtype_to_string = function
  | F32 -> "f32"
  | F64 -> "f64"
  | I1 -> "i1"
  | I8 -> "i8"
  | I32 -> "i32"
  | I64 -> "i64"
  | Index -> "index"

let dtype_of_string = function
  | "f32" -> Some F32
  | "f64" -> Some F64
  | "i1" -> Some I1
  | "i8" -> Some I8
  | "i32" -> Some I32
  | "i64" -> Some I64
  | "index" -> Some Index
  | _ -> None

let rec add_to_buffer buf = function
  | Scalar d -> Buffer.add_string buf (dtype_to_string d)
  | Memref m ->
    Buffer.add_string buf "memref<";
    List.iter
      (fun d ->
        Util.add_int buf d;
        Buffer.add_char buf 'x')
      m.shape;
    Buffer.add_string buf (dtype_to_string m.elem);
    if not (is_identity_layout m) then begin
      Buffer.add_string buf ", strided<[";
      Util.add_list buf Util.add_int m.strides;
      Buffer.add_string buf "], offset: ";
      if m.offset = min_int then Buffer.add_char buf '?' else Util.add_int buf m.offset;
      Buffer.add_char buf '>'
    end;
    Buffer.add_char buf '>'
  | Func (args, results) ->
    Buffer.add_char buf '(';
    Util.add_list buf add_to_buffer args;
    Buffer.add_string buf ") -> (";
    Util.add_list buf add_to_buffer results;
    Buffer.add_char buf ')'
  | Token -> Buffer.add_string buf "!accel.token"

let to_string t =
  let buf = Buffer.create 32 in
  add_to_buffer buf t;
  Buffer.contents buf

let equal a b = a == b || a = b
