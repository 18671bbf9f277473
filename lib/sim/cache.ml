type geometry = { size_bytes : int; line_bytes : int; assoc : int }

let cortex_a9_l1 = { size_bytes = 32 * 1024; line_bytes = 32; assoc = 4 }
let cortex_a9_l2 = { size_bytes = 512 * 1024; line_bytes = 32; assoc = 8 }

type level = {
  geom : geometry;
  n_sets : int;
  tags : int array;  (* n_sets * assoc; -1 = invalid *)
  ages : int array;  (* LRU timestamps *)
  mutable clock : int;
}

type t = { levels : level array }

let max_size_bytes = 64 * 1024 * 1024

(* Each line costs two array slots in [make_level]: 2^21 lines is a
   64 MiB level at the default 32-byte line. *)
let max_lines = 1 lsl 21

(* The multiple rule is tested as a quotient, so a hostile line_bytes *
   assoc cannot overflow to zero. *)
let check_geometry geom =
  if geom.assoc < 1 then Error ("assoc", "must be positive")
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
  let n_sets = geom.size_bytes / (geom.line_bytes * geom.assoc) in
  {
    geom;
    n_sets;
    tags = Array.make (n_sets * geom.assoc) (-1);
    ages = Array.make (n_sets * geom.assoc) 0;
    clock = 0;
  }

let create geoms = { levels = Array.of_list (List.map make_level geoms) }

let levels t = Array.length t.levels

(* Probe one level: returns true on hit; installs the line and updates
   LRU either way. *)
let probe level addr =
  let line = addr / level.geom.line_bytes in
  let set = line mod level.n_sets in
  let tag = line / level.n_sets in
  let base = set * level.geom.assoc in
  level.clock <- level.clock + 1;
  let hit_way = ref (-1) in
  for way = 0 to level.geom.assoc - 1 do
    if level.tags.(base + way) = tag then hit_way := way
  done;
  if !hit_way >= 0 then begin
    level.ages.(base + !hit_way) <- level.clock;
    true
  end
  else begin
    (* Evict the LRU way. *)
    let victim = ref 0 in
    for way = 1 to level.geom.assoc - 1 do
      if level.ages.(base + way) < level.ages.(base + !victim) then victim := way
    done;
    level.tags.(base + !victim) <- tag;
    level.ages.(base + !victim) <- level.clock;
    false
  end

(* A loop, not a local recursive function: the closure would be
   allocated on every access. *)
let access t addr =
  let levels = t.levels in
  let i = ref 0 in
  while !i < Array.length levels && not (probe levels.(!i) addr) do
    incr i
  done;
  !i + 1

let access_range t ~addr ~bytes ~touched =
  if bytes > 0 then begin
    let line_bytes =
      if Array.length t.levels = 0 then 64 else t.levels.(0).geom.line_bytes
    in
    let first = addr / line_bytes in
    let last = (addr + bytes - 1) / line_bytes in
    for line = first to last do
      touched (access t (line * line_bytes))
    done
  end

let flush t =
  Array.iter
    (fun level ->
      Array.fill level.tags 0 (Array.length level.tags) (-1);
      Array.fill level.ages 0 (Array.length level.ages) 0;
      level.clock <- 0)
    t.levels

let resident t ~level addr =
  if level < 1 || level > Array.length t.levels then false
  else
    let l = t.levels.(level - 1) in
    let line = addr / l.geom.line_bytes in
    let set = line mod l.n_sets in
    let tag = line / l.n_sets in
    let base = set * l.geom.assoc in
    let found = ref false in
    for way = 0 to l.geom.assoc - 1 do
      if l.tags.(base + way) = tag then found := true
    done;
    !found
