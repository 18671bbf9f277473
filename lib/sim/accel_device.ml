(* Residency regions: the host-visible contract of what a device's
   on-chip buffers currently hold. See the .mli for the model. *)

type region = {
  rg_name : string;
  rg_capacity_words : int;
  mutable rg_tag : string option;
}

let make_region ~name ~capacity_words =
  if capacity_words <= 0 then
    invalid_arg "Accel_device.make_region: capacity must be positive";
  { rg_name = name; rg_capacity_words = capacity_words; rg_tag = None }

let region_holds r ~tag = r.rg_tag = Some tag

let region_replace r ~tag ~words =
  if words > r.rg_capacity_words then
    Error
      (Printf.sprintf "%s: %s needs %d words, capacity is %d" r.rg_name tag words
         r.rg_capacity_words)
  else begin
    r.rg_tag <- Some tag;
    Ok ()
  end

let region_clear r = r.rg_tag <- None

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

type meter = { mutable accel_cycles : float }

type t = {
  device_name : string;
  consume : Axi_word.window -> meter -> unit;
  drain : int -> float array;
  drain_into : float array -> int -> unit;
  available : unit -> int;
  reset_device : unit -> unit;
  regions : region list;
}

let of_fifo ~name ~who ~consume ~reset_device ~regions out =
  let check n =
    if Fifo.length out < n then
      failwith
        (Printf.sprintf "%s: host requested %d output words, %d available" who n
           (Fifo.length out))
  in
  {
    device_name = name;
    consume;
    drain =
      (fun n ->
        check n;
        Fifo.pop_array out n);
    drain_into =
      (fun dst n ->
        check n;
        Fifo.pop_into out dst 0 n);
    available = (fun () -> Fifo.length out);
    reset_device;
    regions;
  }

let find_region t name = List.find_opt (fun r -> r.rg_name = name) t.regions
