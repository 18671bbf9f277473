let ( let* ) = Result.bind

(* The sections keep their own error roots ("cpu.…", "accel_config.…"). *)
let of_json_result json =
  let section name =
    let* v = Json.field_opt name Json.value "config" json in
    Option.to_result ~none:(Printf.sprintf "config: missing \"%s\" section" name) v
  in
  let* cpu = section "cpu" in
  let* host = Host_config.of_json_result cpu in
  let* accel_json = section "accelerator" in
  let* accel = Accel_config.of_json_result accel_json in
  Ok (host, accel)

let parse_string_result text =
  match Json.of_string_result text with
  | Error msg -> Error ("config: " ^ msg)
  | Ok json -> of_json_result json

let parse_file_result path = Json.load of_json_result path

let to_json host accel =
  Json.Obj [ ("cpu", Host_config.to_json host); ("accelerator", Accel_config.to_json accel) ]

let to_string host accel = Json.to_string ~indent:2 (to_json host accel)

let write_file path host accel = Json.write_file ~indent:2 path (to_json host accel)
