type geometry = { size_bytes : int; line_bytes : int; assoc : int }

let cortex_a9_l1 = { size_bytes = 32 * 1024; line_bytes = 32; assoc = 4 }
let cortex_a9_l2 = { size_bytes = 512 * 1024; line_bytes = 32; assoc = 8 }

(* [lines] holds one segment of [assoc] line numbers per set, most
   recently used first; -1 is an invalid slot. *)
type level = {
  lines : int array;
  line_shift : int;
  set_mask : int;
  assoc_shift : int;
}

type t = level array

let max_size_bytes = 64 * 1024 * 1024

(* Each line costs one array slot in [make_level]: 2^21 lines is a
   64 MiB level at the default 32-byte line. *)
let max_lines = 1 lsl 21

(* The multiple rule is tested as a quotient, so a hostile line_bytes *
   assoc cannot overflow to zero. *)
let check_geometry geom =
  if geom.assoc < 1 then Error ("assoc", "must be positive")
  else if not (Util.is_pow2 geom.assoc) then Error ("assoc", "must be a power of two")
  else if not (Util.is_pow2 geom.line_bytes) then
    Error ("line_bytes", "must be a power of two")
  else if geom.size_bytes > max_size_bytes then
    Error ("size_bytes", Printf.sprintf "exceeds the %d MiB ceiling" (max_size_bytes lsr 20))
  else if not (Util.is_pow2 geom.size_bytes) then
    Error ("size_bytes", "must be a power of two")
  else if
    geom.line_bytes > geom.size_bytes || geom.size_bytes / geom.line_bytes mod geom.assoc <> 0
  then Error ("size_bytes", "must be a multiple of line_bytes * assoc")
  else if geom.size_bytes / geom.line_bytes > max_lines then
    Error
      ( "line_bytes",
        Printf.sprintf "must be at least %d for this size (the %d-line ceiling)"
          (geom.size_bytes / max_lines) max_lines )
  else Ok ()

let make_level geom =
  (match check_geometry geom with
  | Ok () -> ()
  | Error (field, why) -> invalid_arg (Printf.sprintf "Cache: %s %s" field why));
  let n_lines = geom.size_bytes / geom.line_bytes in
  {
    lines = Array.make n_lines (-1);
    line_shift = Util.log2 geom.line_bytes;
    set_mask = (n_lines / geom.assoc) - 1;
    assoc_shift = Util.log2 geom.assoc;
  }

let create geoms = Array.of_list (List.map make_level geoms)

let levels t = Array.length t

(* Probe one level: returns true on hit. Either way the line moves to
   the front of its segment and the lines before it shift back a slot,
   so a miss drops the last slot: the LRU line, or an invalid one.
   Inlined into [access], its one caller. *)
let[@inline] probe level addr =
  let lines = level.lines in
  let line = addr lsr level.line_shift in
  let base = (line land level.set_mask) lsl level.assoc_shift in
  let last = base + (1 lsl level.assoc_shift) - 1 in
  let slot = ref base in
  while !slot < last && lines.(!slot) <> line do
    incr slot
  done;
  let hit = lines.(!slot) = line in
  while !slot > base do
    lines.(!slot) <- lines.(!slot - 1);
    decr slot
  done;
  lines.(base) <- line;
  hit

(* A loop, not a local recursive function: the closure would be
   allocated on every access. *)
let access t addr =
  let i = ref 0 in
  while !i < Array.length t && not (probe t.(!i) addr) do
    incr i
  done;
  !i + 1

let line_shift t = if Array.length t = 0 then 0 else t.(0).line_shift

let flush t =
  Array.iter (fun level -> Array.fill level.lines 0 (Array.length level.lines) (-1)) t

let resident t ~level addr =
  if level < 1 || level > Array.length t then false
  else
    let l = t.(level - 1) in
    let line = addr lsr l.line_shift in
    let base = (line land l.set_mask) lsl l.assoc_shift in
    let found = ref false in
    for slot = base to base + (1 lsl l.assoc_shift) - 1 do
      if l.lines.(slot) = line then found := true
    done;
    !found
