type dma_config = {
  dma_id : int;
  input_address : int;
  input_buffer_size : int;
  output_address : int;
  output_buffer_size : int;
}

type engine_kind = Matmul_engine of Accel_matmul.version * int | Conv_engine

type t = {
  accel_name : string;
  engine : engine_kind;
  op_kind : string;
  data_type : Ty.dtype;
  accel_dims : int list;
  flexible : bool;
  buffer_capacity_elems : int;
  frequency_mhz : float;
  ops_per_cycle : float;
  dma : dma_config;
  opcode_map : Opcode.map;
  opcode_flows : (string * Opcode.flow) list;
  selected_flow : string;
  init_opcodes : string list;
}

let n_args t =
  match t.op_kind with
  | "matmul" | "conv_2d_nchw_fchw" -> 3
  | other -> failwith (Printf.sprintf "Accel_config: unknown op kind %s" other)

let flow_exn t name =
  match List.assoc_opt name t.opcode_flows with
  | Some f -> f
  | None ->
    failwith
      (Printf.sprintf "Accel_config %s: no flow named %s (available: %s)" t.accel_name
         name
         (String.concat ", " (List.map fst t.opcode_flows)))

let iteration_dims t =
  match t.op_kind with
  | "matmul" -> 3
  | "conv_2d_nchw_fchw" -> 7
  | other -> failwith (Printf.sprintf "Accel_config: unknown op kind %s" other)

let ( let* ) r f = Result.bind r f

let max_dma_buffer_bytes = 16 * 1024 * 1024
let max_engine_size = 64

let engine_size path json =
  let* size = Json.int path json in
  if size <= 0 then Json.error path "must be positive"
  else if size > max_engine_size then
    Json.error path
      (Printf.sprintf "exceeds the engine-size ceiling of %d" max_engine_size)
  else Ok size

let validate t =
  let* () =
    match t.op_kind with
    | "matmul" | "conv_2d_nchw_fchw" -> Ok ()
    | other -> Error (Printf.sprintf "unknown op kind %s" other)
  in
  let* () =
    if List.length t.accel_dims = iteration_dims t then Ok ()
    else
      Error
        (Printf.sprintf "accel_dims must have %d entries for %s" (iteration_dims t)
           t.op_kind)
  in
  let* () = Opcode.validate_map ~n_args:(n_args t) t.opcode_map in
  let rec check_flows = function
    | [] -> Ok ()
    | (name, flow) :: rest ->
      let* () =
        Result.map_error
          (fun e -> Printf.sprintf "flow %s: %s" name e)
          (Opcode.validate_flow t.opcode_map flow)
      in
      check_flows rest
  in
  let* () = check_flows t.opcode_flows in
  let* () =
    if List.mem_assoc t.selected_flow t.opcode_flows then Ok ()
    else Error (Printf.sprintf "selected flow %s is not defined" t.selected_flow)
  in
  let* () =
    let missing =
      List.filter (fun k -> Opcode.find t.opcode_map k = None) t.init_opcodes
    in
    if missing = [] then Ok ()
    else Error (Printf.sprintf "undefined init opcodes: %s" (String.concat ", " missing))
  in
  let* () =
    (* both size the device model: a non-positive (or NaN) one must
       not reach it *)
    if t.buffer_capacity_elems <= 0 then Error "buffer_elems: must be positive"
    else if not (t.ops_per_cycle > 0.0) then Error "ops_per_cycle: must be positive"
    else
      match t.engine with
      | Matmul_engine (version, size) ->
        let cap = Accel_matmul.buffer_capacity_elems version ~size in
        if t.buffer_capacity_elems <= cap then Ok ()
        else
          Error
            (Printf.sprintf "buffer_capacity_elems %d exceeds the %s_%d engine's %d"
               t.buffer_capacity_elems
               (Accel_matmul.version_to_string version)
               size cap)
      | Conv_engine ->
        if t.buffer_capacity_elems <= Accel_conv.buffer_capacity_elems then Ok ()
        else Error "buffer_capacity_elems exceeds the conv engine's capacity"
  in
  let region field bytes =
    if bytes <= 0 then Error (Printf.sprintf "dma.%s: must be positive" field)
    else if bytes > max_dma_buffer_bytes then
      Error
        (Printf.sprintf "dma.%s: exceeds the %d MiB ceiling" field
           (max_dma_buffer_bytes lsr 20))
    else Ok ()
  in
  let* () = region "input_buffer_size" t.dma.input_buffer_size in
  region "output_buffer_size" t.dma.output_buffer_size

let make_device ?tracer t =
  match t.engine with
  | Matmul_engine (version, size) -> Accel_matmul.create ?tracer ~version ~size ()
  | Conv_engine ->
    Accel_conv.create ~ops_per_cycle:t.ops_per_cycle ?tracer
      ~capacity_elems:t.buffer_capacity_elems ()

let attach soc t =
  (* Share the SoC's tracer so device-level events (tile computations,
     patch inner products) land in the same trace as the host spans. *)
  Soc.attach_engine soc ~dma_id:t.dma.dma_id
    ~device:(make_device ~tracer:soc.Soc.tracer t)
    ~in_capacity_words:(t.dma.input_buffer_size / 4)
    ~out_capacity_words:(t.dma.output_buffer_size / 4)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* Every malformed field — missing, mistyped, bad opcode syntax, an
   unknown engine or data type — reports as "accel_config.FIELD: WHY". *)
let opcode_syntax parse path json =
  let* text = Json.string path json in
  match parse text with v -> Ok v | exception Opcode.Syntax_error msg -> Json.error path msg

let engine_of_json path json =
  let* name = Json.field "engine" Json.string path json in
  match name with
  | "conv" -> Ok Conv_engine
  | v -> (
    match Accel_matmul.version_of_string v with
    | Some version ->
      let* size = Json.field "size" engine_size path json in
      Ok (Matmul_engine (version, size))
    | None -> Json.error (path ^ ".engine") ("unknown engine " ^ v))

let data_type_of_json path json =
  let* name = Json.string path json in
  match Ty.dtype_of_string name with
  | Some d -> Ok d
  | None -> Json.error path ("unknown data type " ^ name)

let dma_of_json path json =
  let* dma_id = Json.field "id" Json.int path json in
  let* input_address = Json.field "input_address" Json.int path json in
  let* input_buffer_size = Json.field "input_buffer_size" Json.int path json in
  let* output_address = Json.field "output_address" Json.int path json in
  let* output_buffer_size = Json.field "output_buffer_size" Json.int path json in
  Ok { dma_id; input_address; input_buffer_size; output_address; output_buffer_size }

let of_json_result json =
  let path = "accel_config" in
  let* accel_name = Json.field "name" Json.string path json in
  let* engine = engine_of_json path json in
  let* op_kind = Json.field "operation" Json.string path json in
  let* data_type = Json.field "data_type" data_type_of_json path json in
  let* accel_dims = Json.field "dims" (Json.list Json.int) path json in
  let* flexible = Json.field_opt "flexible" Json.bool path json in
  let* buffer_capacity_elems = Json.field "buffer_elems" Json.int path json in
  let* frequency_mhz = Json.field "frequency_mhz" Json.positive_float path json in
  let* ops_per_cycle = Json.field "ops_per_cycle" Json.float path json in
  let* dma = Json.field "dma" dma_of_json path json in
  let* opcode_map = Json.field "opcode_map" (opcode_syntax Opcode.parse_map) path json in
  let* opcode_flows =
    Json.field "opcode_flows" (Json.assoc (opcode_syntax Opcode.parse_flow)) path json
  in
  let* selected_flow = Json.field "flow" Json.string path json in
  let* init_opcodes =
    Json.field "init_opcodes"
      (opcode_syntax (fun text -> Opcode.flow_opcodes (Opcode.parse_flow text)))
      path json
  in
  let config =
    {
      accel_name;
      engine;
      op_kind;
      data_type;
      accel_dims;
      flexible = Option.value flexible ~default:false;
      buffer_capacity_elems;
      frequency_mhz;
      ops_per_cycle;
      dma;
      opcode_map;
      opcode_flows;
      selected_flow;
      init_opcodes;
    }
  in
  match validate config with
  | Ok () -> Ok config
  | Error msg -> Error (Printf.sprintf "accel_config %s: %s" accel_name msg)

let to_json t =
  let engine_fields =
    match t.engine with
    | Matmul_engine (version, size) ->
      [
        ("engine", Json.String (Accel_matmul.version_to_string version));
        ("size", Json.Int size);
      ]
    | Conv_engine -> [ ("engine", Json.String "conv") ]
  in
  Json.Obj
    (( ("name", Json.String t.accel_name) :: engine_fields )
    @ [
        ("operation", Json.String t.op_kind);
        ("data_type", Json.String (Ty.dtype_to_string t.data_type));
        ("dims", Json.List (List.map (fun d -> Json.Int d) t.accel_dims));
        ("flexible", Json.Bool t.flexible);
        ("buffer_elems", Json.Int t.buffer_capacity_elems);
        ("frequency_mhz", Json.Float t.frequency_mhz);
        ("ops_per_cycle", Json.Float t.ops_per_cycle);
        ( "dma",
          Json.Obj
            [
              ("id", Json.Int t.dma.dma_id);
              ("input_address", Json.Int t.dma.input_address);
              ("input_buffer_size", Json.Int t.dma.input_buffer_size);
              ("output_address", Json.Int t.dma.output_address);
              ("output_buffer_size", Json.Int t.dma.output_buffer_size);
            ] );
        ("opcode_map", Json.String (Opcode.map_to_string t.opcode_map));
        ( "opcode_flows",
          Json.Obj
            (List.map
               (fun (name, flow) -> (name, Json.String (Opcode.flow_to_string flow)))
               t.opcode_flows) );
        ("flow", Json.String t.selected_flow);
        ( "init_opcodes",
          Json.String
            (Opcode.flow_to_string (List.map (fun k -> Opcode.Op k) t.init_opcodes)) );
      ])

let with_flow t name =
  let updated = { t with selected_flow = name } in
  ignore (flow_exn t name);
  updated
