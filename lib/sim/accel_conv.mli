(** Functional + timing model of the Conv2D accelerator (paper
    Sec. IV-D), extended with the residency ISA the whole-model graph
    scheduler targets.

    The engine holds one weight slice W(oc, :, :, :) stationary and
    computes one output element per input patch: the host configures
    the filter edge (fHW) and input-channel count (iC), loads
    [iC * fHW * fHW] weight elements, then streams input patches of the
    same length; each patch instruction queues one output element
    (the inner product). The [cv_drain] instruction releases queued
    elements to the output stream.

    Chaining extensions: [cv_accept c h w] moves exactly [c*h*w]
    pending (undrained) output elements into a resident activation
    image, and [cv_patch_resident y x] assembles a patch from that
    image (honouring [cv_set_stride]) instead of the stream — a
    consumer layer on the same device reads its producer's output
    without a host round trip. Patch element order is identical on
    both paths, so chained outputs are bit-identical to streamed
    ones.

    The device exposes two {!Accel_device.region}s — ["weights"]
    (capacity [capacity_elems]) and ["activations"] (capacity
    {!act_capacity_elems}) — the host-visible residency contract drivers
    update as they issue loads and accepts. *)

val default_ops_per_cycle : float
(** MAC-array throughput (64 OPs/cycle — comparable to the v3_16
    engine, as both come from the same HLS library). *)

val buffer_capacity_elems : int
(** Default weight/patch buffer capacity (8192 f32 elements: enough
    for every ResNet18 layer, e.g. iC=512 with a 3x3 filter needs
    4608). *)

val act_capacity_elems : int
(** Resident activation image capacity (16384 f32 elements, a 64 KiB
    feature-map SRAM). *)

val create :
  ?ops_per_cycle:float -> ?tracer:Trace.t -> ?capacity_elems:int -> unit -> Accel_device.t
(** [tracer] (default {!Trace.noop}) receives an instant event on
    {!Trace.accel_track} per computed patch (inner product), tagged
    with its source (["stream"] or ["resident"]). [capacity_elems]
    overrides the weight/patch buffer size (the residency tests pin
    capacity-exactly-full behaviour on small buffers). *)
