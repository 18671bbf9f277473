let schema = "axi4mlir-tune-v1"

type outcome = Cycles of float | Rejected of string

type entry = {
  e_key : string;
  e_label : string;
  e_workload : string;
  e_candidate : Json.t;
  e_outcome : outcome;
}

type t = {
  table : (string, outcome) Hashtbl.t;
  mutable entries : entry list;  (** reverse insertion order *)
}

let create () = { table = Hashtbl.create 64; entries = [] }

let key workload config candidate =
  Benchdiff.config_hash
    (Json.Obj
       [
         ("dims", Json.List (List.map (fun d -> Json.Int d) (Tune_workload.dims workload)));
         ("conv", Json.Bool (Tune_workload.is_conv workload));
         ("accel", Accel_config.to_json config);
         ("candidate", Tune_space.candidate_to_json candidate);
       ])

let find t k = Hashtbl.find_opt t.table k

let add t ~key ~label ~workload ~candidate outcome =
  if not (Hashtbl.mem t.table key) then
    t.entries <-
      {
        e_key = key;
        e_label = label;
        e_workload = Tune_workload.to_string workload;
        e_candidate = Tune_space.candidate_to_json candidate;
        e_outcome = outcome;
      }
      :: t.entries;
  Hashtbl.replace t.table key outcome

let size t = Hashtbl.length t.table

let outcome_to_json = function
  | Cycles c -> Json.Obj [ ("cycles", Json.Float c) ]
  | Rejected reason -> Json.Obj [ ("rejected", Json.String reason) ]

let entry_to_json e =
  Json.Obj
    [
      ("key", Json.String e.e_key);
      ("label", Json.String e.e_label);
      ("workload", Json.String e.e_workload);
      ("candidate", e.e_candidate);
      ("outcome", outcome_to_json e.e_outcome);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("entries", Json.List (List.rev_map entry_to_json t.entries));
    ]

let save t path = Json.write_file ~indent:2 path (to_json t)

let ( let* ) = Result.bind

let outcome_of_json path json =
  let* cycles = Json.field_opt "cycles" Json.float path json in
  match cycles with
  | Some c -> Ok (Cycles c)
  | None -> Result.map (fun r -> Rejected r) (Json.field "rejected" Json.string path json)

let entry_of_json path json =
  let* e_key = Json.field "key" Json.string path json in
  let* e_label = Json.field "label" Json.string path json in
  let* e_workload = Json.field "workload" Json.string path json in
  let* e_candidate = Json.field "candidate" Json.value path json in
  let* e_outcome = Json.field "outcome" outcome_of_json path json in
  Ok { e_key; e_label; e_workload; e_candidate; e_outcome }

let of_json_result json =
  let* () = Json.schema schema "tune" json in
  let* entries = Json.field "entries" (Json.list entry_of_json) "tune" json in
  let t = create () in
  List.iter
    (fun e ->
      if not (Hashtbl.mem t.table e.e_key) then t.entries <- e :: t.entries;
      Hashtbl.replace t.table e.e_key e.e_outcome)
    entries;
  Ok t

let load path =
  if not (Sys.file_exists path) then Ok (create ()) else Json.load of_json_result path
