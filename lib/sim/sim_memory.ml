type buffer = { base : int; data : float array; label : string }

type t = { mutable next : int }

(* Keep ordinary buffers well away from address 0 so they can never be
   confused with the DMA apertures, which Dma_engine places below. *)
let heap_base = 0x1000_0000
let capacity_bytes = 512 * 1024 * 1024

let create () = { next = heap_base }

let alloc t ~label n =
  if n < 0 then invalid_arg "Sim_memory.alloc: negative size";
  let base = Util.round_up t.next ~multiple:64 in
  (* compared in elements, so that a huge [n] cannot overflow *)
  if n > (heap_base + capacity_bytes - base) / 4 then
    failwith
      (Printf.sprintf "Sim_memory.alloc: %s of %d elements exceeds the %d MiB of simulated DDR"
         label n
         (capacity_bytes / (1024 * 1024)));
  t.next <- base + (n * 4);
  { base; data = Array.make n 0.0; label }

let addr_of buf i =
  if i < 0 || i >= Array.length buf.data then
    invalid_arg
      (Printf.sprintf "Sim_memory.addr_of: index %d out of bounds for %s (%d elements)" i
         buf.label (Array.length buf.data));
  buf.base + (i * 4)

let get buf i =
  if i < 0 || i >= Array.length buf.data then
    invalid_arg
      (Printf.sprintf "Sim_memory.get: index %d out of bounds for %s" i buf.label);
  buf.data.(i)

let set buf i v =
  if i < 0 || i >= Array.length buf.data then
    invalid_arg
      (Printf.sprintf "Sim_memory.set: index %d out of bounds for %s" i buf.label);
  buf.data.(i) <- v

let footprint_bytes t = t.next - heap_base
