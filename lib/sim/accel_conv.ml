let default_ops_per_cycle = 64.0
let buffer_capacity_elems = 8192
let act_capacity_elems = 16384

type state = {
  ops_per_cycle : float;
  capacity : int;  (* of the weight and patch buffers *)
  tracer : Trace.t;
  mutable fhw : int;
  mutable ic : int;
  mutable stride : int;
  w : float array;
  patch : float array;
  dot : float array;  (* the last patch's inner product, pushed from here *)
  (* resident activation image (accel->accel chaining): [act_c] channel
     planes of [act_h] x [act_w], channel-major *)
  act : float array;
  mutable act_c : int;
  mutable act_h : int;
  mutable act_w : int;
  pending : Accel_device.Fifo.t;  (** computed but not yet released *)
  out : Accel_device.Fifo.t;
  (* The residency contract: one weight slice, one activation image. *)
  w_region : Accel_device.region;
  act_region : Accel_device.region;
}

let who = "conv accelerator"
let slice_len st = st.ic * st.fhw * st.fhw

let reset st =
  st.fhw <- 0;
  st.ic <- 0;
  st.stride <- 1;
  Array.fill st.w 0 (Array.length st.w) 0.0;
  Array.fill st.act 0 (Array.length st.act) 0.0;
  st.act_c <- 0;
  st.act_h <- 0;
  st.act_w <- 0;
  Accel_device.Fifo.clear st.pending;
  Accel_device.Fifo.clear st.out;
  Accel_device.region_clear st.w_region;
  Accel_device.region_clear st.act_region

let check_config st =
  if st.fhw <= 0 || st.ic <= 0 then
    failwith "conv accelerator: fHW/iC not configured before data transfer";
  if slice_len st > st.capacity then
    failwith
      (Printf.sprintf "conv accelerator: slice iC=%d fHW=%d exceeds capacity %d" st.ic
         st.fhw st.capacity)

let read_payload st win dst n =
  check_config st;
  Axi_word.read_data ~who win dst n

let next_inst win = Axi_word.next_inst ~who win

(* One output element: the inner product of the weight slice and
   whatever [st.patch] holds, accumulated in c-major (dy, dx) order —
   the order both the streamed and the resident patch paths use, so
   chaining cannot change output bits. Returns its accelerator cycles;
   inlined, so neither they nor the product are boxed. *)
let[@inline] compute_patch st ~src =
  let n = slice_len st in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (st.w.(i) *. st.patch.(i))
  done;
  st.dot.(0) <- !acc;
  Accel_device.Fifo.push_array st.pending st.dot 0 1;
  let c = 2.0 *. float_of_int n /. st.ops_per_cycle in
  if Trace.enabled st.tracer then
    Trace.instant st.tracer ~cat:"accel" ~track:Trace.accel_track
      ~args:
        [
          ("ic", Trace.Int st.ic);
          ("fhw", Trace.Int st.fhw);
          ("src", Trace.Str src);
          ("accel_cycles", Trace.Num c);
        ]
      "cv_patch";
  c

(* Copies the resident image's patch at output (y, x) into [st.patch]. *)
let gather_resident st ~y ~x =
  if st.act_c = 0 then failwith "conv accelerator: cv_patch_resident with no resident image";
  if st.act_c <> st.ic then
    failwith
      (Printf.sprintf "conv accelerator: resident image has %d channels, iC is %d" st.act_c
         st.ic);
  let y0 = st.stride * y and x0 = st.stride * x in
  if y0 < 0 || x0 < 0 || y0 + st.fhw > st.act_h || x0 + st.fhw > st.act_w then
    failwith
      (Printf.sprintf "conv accelerator: resident patch (%d,%d) exceeds the %dx%d image" y x
         st.act_h st.act_w);
  let idx = ref 0 in
  for c = 0 to st.ic - 1 do
    for dy = 0 to st.fhw - 1 do
      for dx = 0 to st.fhw - 1 do
        st.patch.(!idx) <- st.act.((((c * st.act_h) + y0 + dy) * st.act_w) + x0 + dx);
        incr idx
      done
    done
  done

(* Moves the [c] x [h] x [w] pending outputs into the resident image;
   returns the element count. *)
let accept st ~c ~h ~w =
  let n = c * h * w in
  if c <= 0 || h <= 0 || w <= 0 then
    failwith "conv accelerator: cv_accept dimensions must be positive";
  if n > act_capacity_elems then
    failwith
      (Printf.sprintf "conv accelerator: image %dx%dx%d exceeds activation capacity %d" c h
         w act_capacity_elems);
  if Accel_device.Fifo.length st.pending <> n then
    failwith
      (Printf.sprintf
         "conv accelerator: cv_accept expects exactly %d pending elements, %d queued" n
         (Accel_device.Fifo.length st.pending));
  Accel_device.Fifo.pop_into st.pending st.act 0 n;
  st.act_c <- c;
  st.act_h <- h;
  st.act_w <- w;
  n

(* Decodes one transaction. A closed function that adds each compute's
   cycles to the flat [meter], so decoding allocates nothing. *)
let consume st win (meter : Accel_device.meter) =
  while not (Axi_word.at_end win) do
    let code = next_inst win in
    if code = Isa.reset then reset st
    else if code = Isa.cv_set_fhw then st.fhw <- next_inst win
    else if code = Isa.cv_set_ic then st.ic <- next_inst win
    else if code = Isa.cv_set_stride then begin
      let s = next_inst win in
      if s <= 0 then failwith "conv accelerator: stride must be positive";
      st.stride <- s
    end
    else if code = Isa.cv_load_w then read_payload st win st.w (slice_len st)
    else if code = Isa.cv_patch then begin
      read_payload st win st.patch (slice_len st);
      meter.accel_cycles <- meter.accel_cycles +. compute_patch st ~src:"stream"
    end
    else if code = Isa.cv_patch_resident then begin
      check_config st;
      let y = next_inst win in
      let x = next_inst win in
      gather_resident st ~y ~x;
      meter.accel_cycles <- meter.accel_cycles +. compute_patch st ~src:"resident"
    end
    else if code = Isa.cv_drain then Accel_device.Fifo.transfer st.pending st.out
    else if code = Isa.cv_accept then begin
      let c = next_inst win in
      let h = next_inst win in
      let w = next_inst win in
      let n = accept st ~c ~h ~w in
      (* an on-chip move: one element per MAC lane per cycle *)
      meter.accel_cycles <- meter.accel_cycles +. (float_of_int n /. st.ops_per_cycle)
    end
    else
      failwith (Printf.sprintf "conv accelerator: unsupported instruction %s" (Isa.name code))
  done

let create ?(ops_per_cycle = default_ops_per_cycle) ?(tracer = Trace.noop)
    ?(capacity_elems = buffer_capacity_elems) () =
  let st =
    {
      ops_per_cycle;
      capacity = capacity_elems;
      tracer;
      fhw = 0;
      ic = 0;
      stride = 1;
      w = Array.make capacity_elems 0.0;
      patch = Array.make capacity_elems 0.0;
      dot = [| 0.0 |];
      act = Array.make act_capacity_elems 0.0;
      act_c = 0;
      act_h = 0;
      act_w = 0;
      pending = Accel_device.Fifo.create ();
      out = Accel_device.Fifo.create ();
      w_region = Accel_device.make_region ~name:"weights" ~capacity_words:capacity_elems;
      act_region =
        Accel_device.make_region ~name:"activations" ~capacity_words:act_capacity_elems;
    }
  in
  Accel_device.of_fifo ~name:"conv2d" ~who ~consume:(consume st)
    ~reset_device:(fun () -> reset st)
    ~regions:[ st.w_region; st.act_region ] st.out
