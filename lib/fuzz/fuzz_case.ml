(* One differential-testing scenario: a workload (shape + data seed)
   plus a complete accelerator-configuration choice. Cases serialise to
   a single JSON object so a failing case can be written to a corpus
   file and replayed bit-for-bit. *)

type workload =
  | Matmul of { m : int; n : int; k : int }
  | Conv of { ic : int; ihw : int; oc : int; fhw : int; stride : int }

type t = {
  engine : string;  (* "v1".."v4" for matmul engines, "conv" *)
  size : int;  (* matmul engine edge; ignored for conv *)
  flow : string;
  workload : workload;
  tiles : int list option;  (* tile override (flexible engines only) *)
  cpu_tiling : bool;
  copy_specialization : bool;
  coalesce_transfers : bool;
  double_buffer : bool;
  to_runtime_calls : bool;
  dma_buffer_bytes : int;
  data_seed : int;
  init_c : bool;  (* non-zero initial output, exercising accumulation *)
}

let workload_to_string = function
  | Matmul { m; n; k } -> Printf.sprintf "matmul %dx%dx%d" m n k
  | Conv { ic; ihw; oc; fhw; stride } ->
    Printf.sprintf "conv ic=%d ihw=%d oc=%d fhw=%d stride=%d" ic ihw oc fhw stride

let to_string t =
  let opts =
    String.concat ""
      [
        (if t.cpu_tiling then " +cpu-tiling" else "");
        (if t.copy_specialization then " +copy-spec" else "");
        (if t.coalesce_transfers then " +coalesce" else "");
        (if t.double_buffer then " +double-buffer" else "");
        (if t.to_runtime_calls then "" else " accel-level");
        (if t.init_c then " init-C" else "");
        (match t.tiles with
        | None -> ""
        | Some ts -> " tiles=" ^ String.concat "," (List.map string_of_int ts));
      ]
  in
  Printf.sprintf "%s on %s_%d/%s%s seed=%d" (workload_to_string t.workload) t.engine
    t.size t.flow opts t.data_seed

(* ------------------------------------------------------------------ *)
(* JSON (corpus lines)                                                 *)
(* ------------------------------------------------------------------ *)

let workload_to_json = function
  | Matmul { m; n; k } ->
    Json.Obj
      [
        ("kind", Json.String "matmul");
        ("m", Json.Int m);
        ("n", Json.Int n);
        ("k", Json.Int k);
      ]
  | Conv { ic; ihw; oc; fhw; stride } ->
    Json.Obj
      [
        ("kind", Json.String "conv");
        ("ic", Json.Int ic);
        ("ihw", Json.Int ihw);
        ("oc", Json.Int oc);
        ("fhw", Json.Int fhw);
        ("stride", Json.Int stride);
      ]

let to_json t =
  Json.Obj
    ([
       ("engine", Json.String t.engine);
       ("size", Json.Int t.size);
       ("flow", Json.String t.flow);
       ("workload", workload_to_json t.workload);
     ]
    @ (match t.tiles with
      | None -> []
      | Some ts -> [ ("tiles", Json.List (List.map (fun x -> Json.Int x) ts)) ])
    @ [
        ("cpu_tiling", Json.Bool t.cpu_tiling);
        ("copy_specialization", Json.Bool t.copy_specialization);
        ("coalesce_transfers", Json.Bool t.coalesce_transfers);
        ("double_buffer", Json.Bool t.double_buffer);
        ("to_runtime_calls", Json.Bool t.to_runtime_calls);
        ("dma_buffer_bytes", Json.Int t.dma_buffer_bytes);
        ("data_seed", Json.Int t.data_seed);
        ("init_c", Json.Bool t.init_c);
      ])

let ( let* ) = Result.bind

(* Extents, strides, tiles and the DMA buffer size the harness's
   buffers and loops: a non-positive one is a malformed case, not a
   compiler failure. *)
let positive path json =
  let* n = Json.int path json in
  if n > 0 then Ok n else Json.error path "must be positive"

(* The harness sizes both DMA regions from it: Accel_config's ceiling. *)
let dma_bytes path json =
  let* n = positive path json in
  if n <= Accel_config.max_dma_buffer_bytes then Ok n
  else
    Json.error path
      (Printf.sprintf "exceeds the %d MiB ceiling" (Accel_config.max_dma_buffer_bytes lsr 20))

let workload_of_json path json =
  let* kind = Json.field "kind" Json.string path json in
  match kind with
  | "matmul" ->
    let* m = Json.field "m" positive path json in
    let* n = Json.field "n" positive path json in
    let* k = Json.field "k" positive path json in
    Ok (Matmul { m; n; k })
  | "conv" ->
    let* ic = Json.field "ic" positive path json in
    let* ihw = Json.field "ihw" positive path json in
    let* oc = Json.field "oc" positive path json in
    let* fhw = Json.field "fhw" positive path json in
    let* stride = Json.field "stride" positive path json in
    Ok (Conv { ic; ihw; oc; fhw; stride })
  | other -> Json.error (path ^ ".kind") ("unknown kind " ^ other)

let of_json_result json =
  let path = "case" in
  let* engine = Json.field "engine" Json.string path json in
  (* conv cases carry size 0: the conv engine has no edge size; a
     matmul edge is held to Accel_config's range *)
  let* size =
    Json.field "size"
      (if engine = "conv" then Json.int else Accel_config.engine_size)
      path json
  in
  let* flow = Json.field "flow" Json.string path json in
  let* workload = Json.field "workload" workload_of_json path json in
  let* tiles = Json.field_opt "tiles" (Json.list positive) path json in
  let* cpu_tiling = Json.field "cpu_tiling" Json.bool path json in
  let* copy_specialization = Json.field "copy_specialization" Json.bool path json in
  let* coalesce_transfers = Json.field "coalesce_transfers" Json.bool path json in
  let* double_buffer = Json.field "double_buffer" Json.bool path json in
  let* to_runtime_calls = Json.field "to_runtime_calls" Json.bool path json in
  let* dma_buffer_bytes = Json.field "dma_buffer_bytes" dma_bytes path json in
  let* data_seed = Json.field "data_seed" Json.int path json in
  let* init_c = Json.field "init_c" Json.bool path json in
  Ok
    {
      engine;
      size;
      flow;
      workload;
      tiles;
      cpu_tiling;
      copy_specialization;
      coalesce_transfers;
      double_buffer;
      to_runtime_calls;
      dma_buffer_bytes;
      data_seed;
      init_c;
    }

let of_string_result line =
  match Json.of_string_result line with
  | Ok json -> of_json_result json
  | Error msg -> Error ("case: invalid JSON: " ^ msg)

let equal a b = a = b
