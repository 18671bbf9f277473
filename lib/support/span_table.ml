type 'a t = {
  src : string;
  mutable heads : int array;  (* per bucket: 1 + its first entry, or 0 *)
  mutable keys : int array;  (* per entry: start, length, 1 + next entry or 0 *)
  mutable data : 'a array;
  mutable count : int;
}

let create src = { src; heads = [||]; keys = [||]; data = [||]; count = 0 }

(* caml_hash's MurmurHash3 steps, on 32-bit words held in an int *)
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land 0xFFFF_FFFF

let mix h d =
  let d = rotl32 ((d * 0xcc9e2d51) land 0xFFFF_FFFF) 15 in
  let h = rotl32 (h lxor ((d * 0x1b873593) land 0xFFFF_FFFF)) 13 in
  ((h * 5) + 0xe6546b64) land 0xFFFF_FFFF

let byte src i shift = Char.code (String.unsafe_get src i) lsl shift

(* Little-endian words, then the last one to three bytes. *)
let rec mix_words src i stop h =
  if i + 4 <= stop then
    mix_words src (i + 4) stop
      (mix h (byte src i 0 lor byte src (i + 1) 8 lor byte src (i + 2) 16 lor byte src (i + 3) 24))
  else
    match stop - i with
    | 3 -> mix h (byte src i 0 lor byte src (i + 1) 8 lor byte src (i + 2) 16)
    | 2 -> mix h (byte src i 0 lor byte src (i + 1) 8)
    | 1 -> mix h (byte src i 0)
    | _ -> h

let hash src start len =
  let h = mix_words src start (start + len) 0 lxor (len land 0xFFFF_FFFF) in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land 0xFFFF_FFFF in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land 0xFFFF_FFFF in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

let matches t e start len =
  t.keys.((3 * e) + 1) = len && Scanner.same_bytes t.src t.keys.(3 * e) t.src start len

let rec walk t start len link =
  if link = 0 then -1
  else
    let e = link - 1 in
    if matches t e start len then e
    else walk t start len t.keys.((3 * e) + 2)

let find t start len =
  if t.count = 0 then -1
  else walk t start len t.heads.(hash t.src start len land (Array.length t.heads - 1))

let get t e = t.data.(e)

let link t e =
  let b = hash t.src t.keys.(3 * e) t.keys.((3 * e) + 1) land (Array.length t.heads - 1) in
  t.keys.((3 * e) + 2) <- t.heads.(b);
  t.heads.(b) <- e + 1

let initial = 16

let add t start len x =
  let e = t.count in
  if e = 0 then begin
    t.heads <- Array.make initial 0;
    t.keys <- Array.make (3 * initial) 0;
    t.data <- Array.make initial x
  end
  else if e = Array.length t.data then begin
    let keys = Array.make (6 * e) 0 and data = Array.make (2 * e) x in
    Array.blit t.keys 0 keys 0 (3 * e);
    Array.blit t.data 0 data 0 e;
    t.keys <- keys;
    t.data <- data
  end;
  t.keys.(3 * e) <- start;
  t.keys.((3 * e) + 1) <- len;
  t.data.(e) <- x;
  t.count <- e + 1;
  if t.count > 2 * Array.length t.heads then begin
    t.heads <- Array.make (2 * Array.length t.heads) 0;
    for i = 0 to e do
      link t i
    done
  end
  else link t e;
  x
