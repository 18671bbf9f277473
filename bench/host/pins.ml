(* Pinned per-unit observations for the default seed.

   bench/host/expected/<workload>.json maps every unit id to a 64-bit
   FNV-1a digest of its observations (every Perf_counters field of each
   simulated run, pipeline accept/reject, per-policy serve completions,
   makespan and p99, graph skipped words, the platform winner's config
   hash). A speed change must leave every digest unchanged; --bless
   rewrites the file after an intended change of what is simulated. *)

let schema = "axi4mlir-hostbench-pins-v1"

let digest obs =
  Benchdiff.stable_hash (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) obs))

(* Relative to the root of the repository, where the harness runs. *)
let dir = "bench/host/expected"
let path workload = Filename.concat dir (workload ^ ".json")

let load workload =
  let file = path workload in
  match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | exception Sys_error msg -> Error msg
  | exception Json.Parse_error msg -> Error (file ^ ": " ^ msg)
  | json -> (
    match
      if Json.to_str (Json.member "schema" json) <> schema then
        Error (Printf.sprintf "%s: schema is not %s" file schema)
      else
        let table = Hashtbl.create 64 in
        List.iter
          (fun (id, d) -> Hashtbl.replace table id (Json.to_str d))
          (Json.to_obj (Json.member "units" json));
        Ok table
    with
    | r -> r
    | exception Json.Type_error msg -> Error (file ^ ": " ^ msg))

(* [ids] gives the file's unit order. *)
let save ~workload ~seed ids seen =
  let json =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ( "units",
          Json.Obj
            (List.map (fun id -> (id, Json.String (digest (Hashtbl.find seen id)))) ids) );
      ]
  in
  Out_channel.with_open_bin (path workload) (fun oc ->
      output_string oc (Json.to_string ~indent:1 json);
      output_char oc '\n')

(* What happens to each unit's observations: nothing (a seed other than
   the default), a check against the loaded digests, or recording for
   --bless (first pass wins). *)
type mode =
  | Off
  | Check of (string, string) Hashtbl.t
  | Record of (string, (string * string) list) Hashtbl.t

(* Problems with one unit's observations. *)
let observe mode id obs =
  match mode with
  | Off -> []
  | Record seen ->
    if not (Hashtbl.mem seen id) then Hashtbl.replace seen id obs;
    []
  | Check t -> (
    match Hashtbl.find_opt t id with
    | None -> [ "no pinned observations (run with --bless)" ]
    | Some d when d = digest obs -> []
    | Some d ->
      [
        Printf.sprintf "observations differ from pin %s: %s" d
          (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) obs));
      ])
