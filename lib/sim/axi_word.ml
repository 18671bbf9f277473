type t = Inst of int | Data of float

let data_tag = '\000'
let inst_tag = '\001'

type stream = { data : float array; tags : Bytes.t }

let create_stream n = { data = Array.make n 0.0; tags = Bytes.make n inst_tag }
let length s = Array.length s.data

let set_inst s i n =
  s.data.(i) <- float_of_int n;
  Bytes.set s.tags i inst_tag

(* [Sim_memory.addr_of]'s failure for the block's first index, in
   walk order, outside [src]. *)
let fail_outside src j ~len ~count ~stride ~rows ~row_stride =
  for r = 0 to rows - 1 do
    for k = 0 to count - 1 do
      for m = 0 to len - 1 do
        ignore (Sim_memory.addr_of src (j + (r * row_stride) + (k * stride) + m))
      done
    done
  done;
  assert false

(* How far [n] steps of [stride] reach from the first. *)
let reach n stride = (n - 1) * stride

(* One check of each end of the block up front proves every index below
   in range, so the loops skip the per-access bounds checks, as
   [Mac.matmul_acc] does. Word by word: most runs a copy stages are 1-3
   words long (conv patches at fHW = 1 and 3), where a loop costs less
   than the two C calls of [Array.blit] and [Bytes.fill]. From 5 words
   on the calls cost less, but switching on the length did not move
   conv_layers. *)
let gather_data s i (src : Sim_memory.buffer) j ~len ~count ~stride ~rows ~row_stride =
  if len > 0 && count > 0 && rows > 0 then begin
    let data = s.data and tags = s.tags and from = src.Sim_memory.data in
    let words = len * count * rows in
    if i < 0 || words > Array.length data - i then
      invalid_arg "Axi_word.gather_data: block outside the stream";
    let r = reach rows row_stride and k = reach count stride in
    if
      j + Int.min 0 r + Int.min 0 k < 0
      || j + Int.max 0 r + Int.max 0 k + len > Array.length from
    then fail_outside src j ~len ~count ~stride ~rows ~row_stride;
    for r = 0 to rows - 1 do
      let row = j + (r * row_stride) and at_row = i + (r * count * len) in
      for k = 0 to count - 1 do
        let at = at_row + (k * len) and pos = row + (k * stride) in
        for m = 0 to len - 1 do
          Array.unsafe_set data (at + m) (Array.unsafe_get from (pos + m));
          Bytes.unsafe_set tags (at + m) data_tag
        done
      done
    done
  end

let set s i = function
  | Inst n -> set_inst s i n
  | Data f ->
    s.data.(i) <- f;
    Bytes.set s.tags i data_tag

type window = { stream : stream; mutable pos : int; mutable stop : int }

let window s ~pos ~len = { stream = s; pos; stop = pos + len }

let move_window w ~pos ~len =
  w.pos <- pos;
  w.stop <- pos + len

let of_words words =
  let s = create_stream (Array.length words) in
  Array.iteri (set s) words;
  window s ~pos:0 ~len:(Array.length words)

let at_end w = w.pos >= w.stop

let truncated who = failwith (who ^ ": truncated transaction")

let next_inst ~who w =
  if w.pos >= w.stop then truncated who;
  let v = w.stream.data.(w.pos) in
  if Bytes.get w.stream.tags w.pos <> inst_tag then
    failwith (Printf.sprintf "AXI stream desync: expected instruction, got data %g" v);
  w.pos <- w.pos + 1;
  int_of_float v

(* Fails exactly where a word-by-word decode would have: on the first
   instruction word inside the payload, else on running out of words.
   The words before the failure are delivered first. The tags are
   checked eight at a time while eight remain (a data tag is the zero
   byte), then one at a time up to the first instruction word. *)
let read_data ~who w dst n =
  let avail = Int.min n (w.stop - w.pos) in
  let tags = w.stream.tags and pos = w.pos in
  let ok = ref 0 in
  while !ok + 8 <= avail && Int64.equal (Bytes.get_int64_ne tags (pos + !ok)) 0L do
    ok := !ok + 8
  done;
  while !ok < avail && Bytes.get tags (pos + !ok) = data_tag do
    incr ok
  done;
  Array.blit w.stream.data w.pos dst 0 !ok;
  w.pos <- w.pos + !ok;
  if !ok < avail then
    failwith
      (Printf.sprintf "AXI stream desync: expected data, got instruction 0x%X"
         (int_of_float w.stream.data.(w.pos)));
  if !ok < n then truncated who
