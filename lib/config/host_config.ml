type t = {
  cpu_name : string;
  frequency_mhz : float;
  caches : Cache.geometry list;
}

let pynq_z2 =
  {
    cpu_name = "cortex-a9";
    frequency_mhz = 650.0;
    caches = [ Cache.cortex_a9_l1; Cache.cortex_a9_l2 ];
  }

let ( let* ) = Result.bind

(* Cache's own geometry rules, reported against the file's field names
   (the file gives the size in KiB). *)
let geometry_of_json path json =
  let* size_kb = Json.field "size_kb" Json.int path json in
  let* line_bytes = Json.field_opt "line_bytes" Json.int path json in
  let* assoc = Json.field "assoc" Json.int path json in
  let line_bytes = Option.value line_bytes ~default:32 in
  (* clamp before scaling, so a huge size_kb hits the ceiling instead of
     wrapping round to a legal size *)
  let size_kb = Int.max (-1) (Int.min size_kb (max_int / 1024)) in
  let g = { Cache.size_bytes = 1024 * size_kb; line_bytes; assoc } in
  match Cache.check_geometry g with
  | Ok () -> Ok g
  | Error (field, why) ->
    Json.error (path ^ "." ^ if field = "size_bytes" then "size_kb" else field) why

let of_json_result json =
  let path = "cpu" in
  let* cpu_name = Json.field_opt "name" Json.string path json in
  let* frequency_mhz = Json.field "frequency_mhz" Json.positive_float path json in
  let* caches = Json.field "caches" (Json.list geometry_of_json) path json in
  (* the cost model prices L1, L2 and DRAM only *)
  let* () =
    match caches with
    | [ _ ] | [ _; _ ] -> Ok ()
    | _ ->
      Json.error (path ^ ".caches")
        (Printf.sprintf "must list 1 or 2 levels (L1, then L2), found %d"
           (List.length caches))
  in
  Ok { cpu_name = Option.value cpu_name ~default:"cpu"; frequency_mhz; caches }

let to_json t =
  Json.Obj
    [
      ("name", Json.String t.cpu_name);
      ("frequency_mhz", Json.Float t.frequency_mhz);
      ( "caches",
        Json.List
          (List.map
             (fun (g : Cache.geometry) ->
               Json.Obj
                 [
                   ("size_kb", Json.Int (g.size_bytes / 1024));
                   ("line_bytes", Json.Int g.line_bytes);
                   ("assoc", Json.Int g.assoc);
                 ])
             t.caches) );
    ]

let last_level_cache_bytes t =
  match List.rev t.caches with [] -> 0 | g :: _ -> g.Cache.size_bytes

let l1_bytes t = match t.caches with [] -> 0 | g :: _ -> g.Cache.size_bytes
