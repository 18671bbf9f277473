(* Residency regions: the host-visible contract of what a device's
   on-chip buffers currently hold. See the .mli for the model. *)

type entry = {
  en_tag : string;
  en_words : int;
  en_off : int;
  en_seq : int;
}

type region = {
  rg_name : string;
  rg_capacity_words : int;
  mutable rg_entries : entry list;
  mutable rg_next_off : int;
  mutable rg_seq : int;
  mutable rg_hits : int;
  mutable rg_misses : int;
  mutable rg_evictions : int;
}

let make_region ~name ~capacity_words =
  if capacity_words <= 0 then
    invalid_arg "Accel_device.make_region: capacity must be positive";
  {
    rg_name = name;
    rg_capacity_words = capacity_words;
    rg_entries = [];
    rg_next_off = 0;
    rg_seq = 0;
    rg_hits = 0;
    rg_misses = 0;
    rg_evictions = 0;
  }

let region_used r = List.fold_left (fun acc e -> acc + e.en_words) 0 r.rg_entries

let region_tags r =
  List.map (fun e -> e.en_tag)
    (List.sort (fun a b -> compare a.en_seq b.en_seq) r.rg_entries)

let region_lookup r ~tag =
  match List.find_opt (fun e -> e.en_tag = tag) r.rg_entries with
  | Some e ->
    r.rg_hits <- r.rg_hits + 1;
    Some e.en_off
  | None ->
    r.rg_misses <- r.rg_misses + 1;
    None

let region_invalidate r ~tag =
  r.rg_entries <- List.filter (fun e -> e.en_tag <> tag) r.rg_entries

let region_clear r =
  r.rg_entries <- [];
  r.rg_next_off <- 0

let overlaps lo hi e = e.en_off < hi && e.en_off + e.en_words > lo

let region_install r ~tag ~words =
  if words <= 0 then Error (Printf.sprintf "%s: cannot install %d words" r.rg_name words)
  else if words > r.rg_capacity_words then
    Error
      (Printf.sprintf "%s: %s needs %d words, capacity is %d" r.rg_name tag words
         r.rg_capacity_words)
  else begin
    (* Installing a tag that is already resident overwrites it: the old
       copy is no longer valid (validity invalidation on overwrite). *)
    region_invalidate r ~tag;
    let off = if r.rg_next_off + words > r.rg_capacity_words then 0 else r.rg_next_off in
    let evicted, kept = List.partition (overlaps off (off + words)) r.rg_entries in
    (* Ring allocation evicts in installation order: entries overlap the
       claimed range oldest-offset-first, so the returned list is the
       deterministic eviction order the tests pin. *)
    let evicted = List.sort (fun a b -> compare a.en_seq b.en_seq) evicted in
    r.rg_evictions <- r.rg_evictions + List.length evicted;
    r.rg_seq <- r.rg_seq + 1;
    r.rg_entries <-
      kept @ [ { en_tag = tag; en_words = words; en_off = off; en_seq = r.rg_seq } ];
    r.rg_next_off <- off + words;
    Ok (off, List.map (fun e -> e.en_tag) evicted)
  end

(* Single-tenant buffers (the conv engine's weight slice and resident
   activation image): a new install displaces everything. *)
let region_replace r ~tag ~words =
  match
    if words > r.rg_capacity_words then
      Error
        (Printf.sprintf "%s: %s needs %d words, capacity is %d" r.rg_name tag words
           r.rg_capacity_words)
    else Ok ()
  with
  | Error _ as e -> e
  | Ok () ->
    let evicted = region_tags r in
    r.rg_evictions <- r.rg_evictions + List.length evicted;
    region_clear r;
    (match region_install r ~tag ~words with
    | Ok (off, _) -> Ok (off, evicted)
    | Error _ as e -> e)

(* A sliding buffer: pops advance [head]; a push that would run off
   the end first moves the live elements back to index 0, growing the
   buffer only when they do not fit. *)
module Fifo = struct
  type t = { mutable buf : float array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 256 0.0; head = 0; len = 0 }
  let length f = f.len

  let clear f =
    f.head <- 0;
    f.len <- 0

  let reserve f n =
    if f.head + f.len + n > Array.length f.buf then begin
      let dst =
        if f.len + n <= Array.length f.buf then f.buf
        else Array.make (Int.max (2 * Array.length f.buf) (f.len + n)) 0.0
      in
      Array.blit f.buf f.head dst 0 f.len;
      f.buf <- dst;
      f.head <- 0
    end

  let push f v =
    reserve f 1;
    f.buf.(f.head + f.len) <- v;
    f.len <- f.len + 1

  let push_array f src pos n =
    reserve f n;
    Array.blit src pos f.buf (f.head + f.len) n;
    f.len <- f.len + n

  let advance f n =
    f.len <- f.len - n;
    f.head <- (if f.len = 0 then 0 else f.head + n)

  let pop_into f dst pos n =
    if n > f.len then invalid_arg "Accel_device.Fifo.pop_into: not enough elements";
    Array.blit f.buf f.head dst pos n;
    advance f n

  let pop_array f n =
    if n > f.len then invalid_arg "Accel_device.Fifo.pop_array: not enough elements";
    let out = Array.sub f.buf f.head n in
    advance f n;
    out

  let transfer src dst =
    push_array dst src.buf src.head src.len;
    clear src
end

type t = {
  device_name : string;
  consume : Axi_word.window -> float;
  drain : int -> float array;
  available : unit -> int;
  reset_device : unit -> unit;
  regions : region list;
}

let find_region t name = List.find_opt (fun r -> r.rg_name = name) t.regions
