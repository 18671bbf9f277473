(* The platform description IR: validated record, named presets, and
   the byte-stable add-only axi4mlir-platform-v1 JSON artifact. *)

let schema = "axi4mlir-platform-v1"

type instance = {
  in_id : string;
  in_engine : string;
  in_capacity_elems : int option;
}

type t = {
  pf_name : string;
  pf_instances : instance list;
  pf_dma_channels : int;
  pf_axi_beat_bytes : int;
}

let beat_widths = [ 4; 8; 16 ]

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let matmul_preset_names =
  List.filter (fun n -> n <> "conv2d") Presets.names

let engine_config inst =
  match Presets.find_by_name inst.in_engine with
  | Error _ ->
    Error
      (Printf.sprintf
         "unknown engine %S (instances name Table I matmul presets: %s; the conv \
          engine is an implicit sidecar)"
         inst.in_engine
         (String.concat ", " matmul_preset_names))
  | Ok config -> (
    match config.Accel_config.engine with
    | Accel_config.Conv_engine ->
      Error
        (Printf.sprintf
           "engine %S is the conv sidecar, not a per-instance matmul engine"
           inst.in_engine)
    | Accel_config.Matmul_engine _ -> (
      match inst.in_capacity_elems with
      | None -> Ok config
      | Some cap when cap <= 0 ->
        Error (Printf.sprintf "capacity override must be positive (got %d)" cap)
      | Some cap ->
        let config = { config with Accel_config.buffer_capacity_elems = cap } in
        (match Accel_config.validate config with
        | Ok () -> Ok config
        | Error msg ->
          Error (Printf.sprintf "capacity override %d: %s" cap msg))))

let validate p =
  let* () =
    if String.trim p.pf_name = "" then Error "platform.name: must not be empty"
    else Ok ()
  in
  let* () =
    if p.pf_instances = [] then
      Error "platform.instances: need at least one accelerator instance"
    else Ok ()
  in
  let* () =
    if p.pf_dma_channels < 1 then
      Error
        (Printf.sprintf "platform.dma_channels: need at least one DMA channel (got %d)"
           p.pf_dma_channels)
    else Ok ()
  in
  let* () =
    if not (List.mem p.pf_axi_beat_bytes beat_widths) then
      Error
        (Printf.sprintf "platform.axi_beat_bytes: %d is not a valid beat width (valid: %s)"
           p.pf_axi_beat_bytes
           (String.concat ", " (List.map string_of_int beat_widths)))
    else Ok ()
  in
  let rec check_instances seen i = function
    | [] -> Ok ()
    | inst :: rest ->
      let path = Printf.sprintf "platform.instances[%d]" i in
      let* () =
        if String.trim inst.in_id = "" then
          Error (Printf.sprintf "%s.id: must not be empty" path)
        else Ok ()
      in
      let* () =
        if List.mem inst.in_id seen then
          Error (Printf.sprintf "%s.id: duplicate instance id %S" path inst.in_id)
        else Ok ()
      in
      let* _config =
        match engine_config inst with
        | Ok c -> Ok c
        | Error msg -> Error (Printf.sprintf "%s.engine: %s" path msg)
      in
      check_instances (inst.in_id :: seen) (i + 1) rest
  in
  check_instances [] 0 p.pf_instances

let n_instances p = List.length p.pf_instances

let instance_names p = List.map (fun i -> i.in_engine) p.pf_instances

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)
(* ------------------------------------------------------------------ *)

let mk_instances engines =
  List.mapi
    (fun i engine ->
      { in_id = Printf.sprintf "acc%d" i; in_engine = engine; in_capacity_elems = None })
    engines

let homogeneous ?name ~accels () =
  let name =
    match name with Some n -> n | None -> Printf.sprintf "homogeneous-%dxv4_16" accels
  in
  {
    pf_name = name;
    pf_instances = mk_instances (List.init accels (fun _ -> "v4_16"));
    pf_dma_channels = max 1 accels;
    pf_axi_beat_bytes = 4;
  }

let presets =
  [
    ("pynq-2xv4", homogeneous ~name:"pynq-2xv4" ~accels:2 ());
    ( "hetero-v3v4",
      {
        pf_name = "hetero-v3v4";
        pf_instances = mk_instances [ "v4_16"; "v3_16" ];
        pf_dma_channels = 2;
        pf_axi_beat_bytes = 4;
      } );
    ( "budget-4xv2",
      {
        pf_name = "budget-4xv2";
        pf_instances = mk_instances [ "v2_8"; "v2_8"; "v2_8"; "v2_8" ];
        pf_dma_channels = 2;
        pf_axi_beat_bytes = 8;
      } );
  ]

let find_preset name =
  match List.assoc_opt name presets with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown platform preset %S (valid presets: %s)" name
         (String.concat ", " (List.map fst presets)))

(* ------------------------------------------------------------------ *)
(* JSON (axi4mlir-platform-v1, add-only)                               *)
(* ------------------------------------------------------------------ *)

let instance_json inst =
  Json.Obj
    [
      ("id", Json.String inst.in_id);
      ("engine", Json.String inst.in_engine);
      ( "capacity_elems",
        match inst.in_capacity_elems with None -> Json.Null | Some c -> Json.Int c );
    ]

let to_json p =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("name", Json.String p.pf_name);
      ("dma_channels", Json.Int p.pf_dma_channels);
      ("axi_beat_bytes", Json.Int p.pf_axi_beat_bytes);
      ("instances", Json.List (List.map instance_json p.pf_instances));
    ]

let instance_of_json path json =
  let* in_id = Json.field "id" Json.string path json in
  let* in_engine = Json.field "engine" Json.string path json in
  let* in_capacity_elems = Json.field_opt "capacity_elems" Json.int path json in
  Ok { in_id; in_engine; in_capacity_elems }

let of_json_result json =
  let path = "platform" in
  let* () = Json.schema schema path json in
  let* pf_name = Json.field "name" Json.string path json in
  let* pf_dma_channels = Json.field "dma_channels" Json.int path json in
  let* pf_axi_beat_bytes = Json.field "axi_beat_bytes" Json.int path json in
  let* pf_instances = Json.field "instances" (Json.list instance_of_json) path json in
  let p = { pf_name; pf_instances; pf_dma_channels; pf_axi_beat_bytes } in
  let* () = validate p in
  Ok p

(* ------------------------------------------------------------------ *)
(* Rendering and files                                                 *)
(* ------------------------------------------------------------------ *)

let to_string p =
  (* collapse equal adjacent engines: "2x v4_16 + 1x v3_16, 2 ch, beat 8" *)
  let rec group = function
    | [] -> []
    | e :: rest ->
      let same, others = List.partition (fun x -> x = e) rest in
      (e, 1 + List.length same) :: group others
  in
  let engines =
    String.concat " + "
      (List.map
         (fun (e, n) -> Printf.sprintf "%dx %s" n e)
         (group (instance_names p)))
  in
  Printf.sprintf "%s, %d ch, beat %d" engines p.pf_dma_channels p.pf_axi_beat_bytes

let write_file path p = Json.write_file ~indent:1 path (to_json p)

let load_file path = Json.load of_json_result path
