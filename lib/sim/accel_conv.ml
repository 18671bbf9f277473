let default_ops_per_cycle = 64.0
let buffer_capacity_elems = 8192
let act_capacity_elems = 16384

type state = {
  mutable fhw : int;
  mutable ic : int;
  mutable stride : int;
  w : float array;
  patch : float array;
  (* resident activation image (accel->accel chaining): [act_c] channel
     planes of [act_h] x [act_w], channel-major *)
  act : float array;
  mutable act_c : int;
  mutable act_h : int;
  mutable act_w : int;
  pending : Accel_device.Fifo.t;  (** computed but not yet released *)
  out : Accel_device.Fifo.t;
}

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
  Accel_device.Fifo.clear st.out

let create ?(ops_per_cycle = default_ops_per_cycle) ?(tracer = Trace.noop)
    ?(capacity_elems = buffer_capacity_elems) () =
  let st =
    {
      fhw = 0;
      ic = 0;
      stride = 1;
      w = Array.make capacity_elems 0.0;
      patch = Array.make capacity_elems 0.0;
      act = Array.make act_capacity_elems 0.0;
      act_c = 0;
      act_h = 0;
      act_w = 0;
      pending = Accel_device.Fifo.create ();
      out = Accel_device.Fifo.create ();
    }
  in
  let check_config () =
    if st.fhw <= 0 || st.ic <= 0 then
      failwith "conv accelerator: fHW/iC not configured before data transfer";
    if slice_len st > capacity_elems then
      failwith
        (Printf.sprintf "conv accelerator: slice iC=%d fHW=%d exceeds capacity %d" st.ic
           st.fhw capacity_elems)
  in
  (* The residency contract: one weight slice, one activation image. *)
  let w_region =
    Accel_device.make_region ~name:"weights" ~capacity_words:capacity_elems
  in
  let act_region =
    Accel_device.make_region ~name:"activations" ~capacity_words:act_capacity_elems
  in
  let reset_all () =
    reset st;
    Accel_device.region_clear w_region;
    Accel_device.region_clear act_region
  in
  (* One output element: the inner product of the weight slice and
     whatever [st.patch] holds, accumulated in c-major (dy, dx) order —
     the order both the streamed and the resident patch paths use, so
     chaining cannot change output bits. *)
  let compute_patch ~src =
    let n = slice_len st in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (st.w.(i) *. st.patch.(i))
    done;
    Accel_device.Fifo.push st.pending !acc;
    let c = 2.0 *. float_of_int n /. ops_per_cycle in
    if Trace.enabled tracer then
      Trace.instant tracer ~cat:"accel" ~track:Trace.accel_track
        ~args:
          [
            ("ic", Trace.Int st.ic);
            ("fhw", Trace.Int st.fhw);
            ("src", Trace.Str src);
            ("accel_cycles", Trace.Num c);
          ]
        "cv_patch";
    c
  in
  let who = "conv accelerator" in
  let consume win =
    let cycles = ref 0.0 in
    let next_inst () = Axi_word.next_inst ~who win in
    let read_payload dst n =
      check_config ();
      Axi_word.read_data ~who win dst n
    in
    while not (Axi_word.at_end win) do
      let code = next_inst () in
      if code = Isa.reset then reset_all ()
      else if code = Isa.cv_set_fhw then st.fhw <- next_inst ()
      else if code = Isa.cv_set_ic then st.ic <- next_inst ()
      else if code = Isa.cv_set_stride then begin
        let s = next_inst () in
        if s <= 0 then failwith "conv accelerator: stride must be positive";
        st.stride <- s
      end
      else if code = Isa.cv_load_w then read_payload st.w (slice_len st)
      else if code = Isa.cv_patch then begin
        let n = slice_len st in
        read_payload st.patch n;
        cycles := !cycles +. compute_patch ~src:"stream"
      end
      else if code = Isa.cv_patch_resident then begin
        check_config ();
        let y = next_inst () in
        let x = next_inst () in
        if st.act_c = 0 then
          failwith "conv accelerator: cv_patch_resident with no resident image";
        if st.act_c <> st.ic then
          failwith
            (Printf.sprintf
               "conv accelerator: resident image has %d channels, iC is %d" st.act_c
               st.ic);
        let y0 = st.stride * y and x0 = st.stride * x in
        if y0 < 0 || x0 < 0 || y0 + st.fhw > st.act_h || x0 + st.fhw > st.act_w then
          failwith
            (Printf.sprintf
               "conv accelerator: resident patch (%d,%d) exceeds the %dx%d image" y x
               st.act_h st.act_w);
        let idx = ref 0 in
        for c = 0 to st.ic - 1 do
          for dy = 0 to st.fhw - 1 do
            for dx = 0 to st.fhw - 1 do
              st.patch.(!idx) <-
                st.act.((((c * st.act_h) + y0 + dy) * st.act_w) + x0 + dx);
              incr idx
            done
          done
        done;
        cycles := !cycles +. compute_patch ~src:"resident"
      end
      else if code = Isa.cv_drain then Accel_device.Fifo.transfer st.pending st.out
      else if code = Isa.cv_accept then begin
        let c = next_inst () in
        let h = next_inst () in
        let w = next_inst () in
        let n = c * h * w in
        if c <= 0 || h <= 0 || w <= 0 then
          failwith "conv accelerator: cv_accept dimensions must be positive";
        if n > act_capacity_elems then
          failwith
            (Printf.sprintf
               "conv accelerator: image %dx%dx%d exceeds activation capacity %d" c h w
               act_capacity_elems);
        if Accel_device.Fifo.length st.pending <> n then
          failwith
            (Printf.sprintf
               "conv accelerator: cv_accept expects exactly %d pending elements, %d \
                queued"
               n (Accel_device.Fifo.length st.pending));
        Accel_device.Fifo.pop_into st.pending st.act 0 n;
        st.act_c <- c;
        st.act_h <- h;
        st.act_w <- w;
        (* an on-chip move: one element per MAC lane per cycle *)
        cycles := !cycles +. (float_of_int n /. ops_per_cycle)
      end
      else failwith (Printf.sprintf "conv accelerator: unsupported instruction %s" (Isa.name code))
    done;
    !cycles
  in
  Accel_device.of_fifo ~name:"conv2d" ~who ~consume ~reset_device:reset_all
    ~regions:[ w_region; act_region ] st.out
