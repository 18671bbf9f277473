type t = Inst of int | Data of float

let data_tag = '\000'
let inst_tag = '\001'

type stream = { data : float array; tags : Bytes.t }

let create_stream n = { data = Array.make n 0.0; tags = Bytes.make n inst_tag }
let length s = Array.length s.data

let set_inst s i n =
  s.data.(i) <- float_of_int n;
  Bytes.set s.tags i inst_tag

(* Word by word: most runs a copy stages are 1-3 words long (conv
   patches at fHW = 1 and 3), where a loop costs less than the two C
   calls of [Array.blit] and [Bytes.fill]. From 5 words on the calls
   cost less, but switching on the length did not move conv_layers. *)
let gather_data s i src j ~len ~count ~stride =
  let data = s.data and tags = s.tags in
  for k = 0 to count - 1 do
    let at = i + (k * len) and from = j + (k * stride) in
    for m = 0 to len - 1 do
      data.(at + m) <- src.(from + m);
      Bytes.set tags (at + m) data_tag
    done
  done

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
