type version = V1 | V2 | V3 | V4

let version_of_string = function
  | "v1" -> Some V1
  | "v2" -> Some V2
  | "v3" -> Some V3
  | "v4" -> Some V4
  | _ -> None

let version_to_string = function V1 -> "v1" | V2 -> "v2" | V3 -> "v3" | V4 -> "v4"

(* Table I design points; other sizes scale like the MAC array area
   (quadratic in the edge) anchored at the 16-lane design. *)
let ops_per_cycle_for_size size =
  match size with
  | 4 -> 10.0
  | 8 -> 60.0
  | 16 -> 112.0
  | s -> 112.0 *. float_of_int (s * s) /. float_of_int (16 * 16)

let v4_capacity = 4096

let buffer_capacity_elems version ~size =
  match version with V1 | V2 | V3 -> size * size | V4 -> v4_capacity

type state = {
  version : version;
  size : int;
  capacity : int;
  ops_per_cycle : float;
  who : string;  (* the device's name in decode errors *)
  tracer : Trace.t;
  mutable tm : int;
  mutable tn : int;
  mutable tk : int;
  a : float array;
  b : float array;
  c : float array;
  out : Accel_device.Fifo.t;
}

let fail_op st code =
  failwith
    (Printf.sprintf "%s_%d accelerator: unsupported instruction %s"
       (version_to_string st.version) st.size (Isa.name code))

(* [a * b > capacity] for a positive [b], compared as a quotient so a
   huge dim cannot wrap the product back under the capacity. *)
let exceeds st a b = b > 0 && a > st.capacity / b

let multiple st d = d > 0 && d mod st.size = 0

let check_dims st =
  if exceeds st st.tm st.tk || exceeds st st.tk st.tn || exceeds st st.tm st.tn then
    failwith
      (Printf.sprintf "%s_%d accelerator: tile %dx%dx%d exceeds buffer capacity %d"
         (version_to_string st.version) st.size st.tm st.tn st.tk st.capacity);
  if not (multiple st st.tm && multiple st st.tn && multiple st st.tk) then
    failwith
      (Printf.sprintf "%s_%d accelerator: tile dims %dx%dx%d must be positive multiples of %d"
         (version_to_string st.version) st.size st.tm st.tn st.tk st.size)

let clear_c st = Array.fill st.c 0 (st.tm * st.tn) 0.0

let reset st =
  st.tm <- st.size;
  st.tn <- st.size;
  st.tk <- st.size;
  Array.fill st.a 0 (Array.length st.a) 0.0;
  Array.fill st.b 0 (Array.length st.b) 0.0;
  Array.fill st.c 0 (Array.length st.c) 0.0;
  Accel_device.Fifo.clear st.out

let note_compute tracer st cycles =
  Trace.instant tracer ~cat:"accel" ~track:Trace.accel_track
    ~args:
      [
        ("tm", Trace.Int st.tm);
        ("tn", Trace.Int st.tn);
        ("tk", Trace.Int st.tk);
        ("accel_cycles", Trace.Num cycles);
      ]
    "mm_compute"

(* One tile MAC pass: C += A x B. Returns accelerator cycles, inlined
   so that they are not boxed. *)
let[@inline] compute st =
  Mac.matmul_acc ~m:st.tm ~n:st.tn ~k:st.tk st.a st.b st.c;
  let cycles = 2.0 *. float_of_int (st.tm * st.tn * st.tk) /. st.ops_per_cycle in
  if Trace.enabled st.tracer then note_compute st.tracer st cycles;
  cycles

let drain_c st =
  Accel_device.Fifo.push_array st.out st.c 0 (st.tm * st.tn);
  clear_c st

let read_payload st win dst n =
  check_dims st;
  Axi_word.read_data ~who:st.who win dst n

let next_inst st win = Axi_word.next_inst ~who:st.who win

(* Decodes one transaction. A closed function that adds each compute's
   cycles to the flat [meter], so decoding allocates nothing. *)
let consume st win (meter : Accel_device.meter) =
  let version = st.version in
  while not (Axi_word.at_end win) do
    let code = next_inst st win in
    if code = Isa.reset then reset st
    else if code = Isa.mm_set_tm && version = V4 then begin
      st.tm <- next_inst st win;
      check_dims st
    end
    else if code = Isa.mm_set_tn && version = V4 then begin
      st.tn <- next_inst st win;
      check_dims st
    end
    else if code = Isa.mm_set_tk && version = V4 then begin
      st.tk <- next_inst st win;
      check_dims st
    end
    else if code = Isa.mm_fused && version = V1 then begin
      read_payload st win st.a (st.tm * st.tk);
      read_payload st win st.b (st.tk * st.tn);
      meter.accel_cycles <- meter.accel_cycles +. compute st;
      drain_c st
    end
    else if code = Isa.mm_load_a && version <> V1 then
      read_payload st win st.a (st.tm * st.tk)
    else if code = Isa.mm_load_b && version <> V1 then
      read_payload st win st.b (st.tk * st.tn)
    else if code = Isa.mm_load_b_compute_drain && version = V2 then begin
      read_payload st win st.b (st.tk * st.tn);
      meter.accel_cycles <- meter.accel_cycles +. compute st;
      drain_c st
    end
    else if code = Isa.mm_compute_drain && version = V2 then begin
      meter.accel_cycles <- meter.accel_cycles +. compute st;
      drain_c st
    end
    else if code = Isa.mm_compute && (version = V3 || version = V4) then
      meter.accel_cycles <- meter.accel_cycles +. compute st
    else if code = Isa.mm_drain && (version = V3 || version = V4) then drain_c st
    else fail_op st code
  done

let create ?(tracer = Trace.noop) ~version ~size () =
  let capacity = buffer_capacity_elems version ~size in
  let who = Printf.sprintf "%s_%d accelerator" (version_to_string version) size in
  let st =
    {
      version;
      size;
      capacity;
      ops_per_cycle = ops_per_cycle_for_size size;
      who;
      tracer;
      tm = size;
      tn = size;
      tk = size;
      a = Array.make capacity 0.0;
      b = Array.make capacity 0.0;
      c = Array.make capacity 0.0;
      out = Accel_device.Fifo.create ();
    }
  in
  (* every tile load overwrites the previous tile by construction, so
     there is no host-managed residency to model *)
  Accel_device.of_fifo
    ~name:(Printf.sprintf "%s_%d" (version_to_string version) size)
    ~who ~consume:(consume st)
    ~reset_device:(fun () -> reset st)
    ~regions:[] st.out
