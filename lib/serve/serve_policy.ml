(* Scheduling policies for the serving simulator. *)

type t = Fifo | Sjf | Batch

let all = [ Fifo; Sjf; Batch ]

let to_string = function Fifo -> "fifo" | Sjf -> "sjf" | Batch -> "batch"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fifo" -> Ok Fifo
  | "sjf" -> Ok Sjf
  | "batch" -> Ok Batch
  | other ->
    Error
      (Printf.sprintf "unknown scheduling policy %S (valid policies: %s)" other
         (String.concat ", " (List.map to_string all)))
