(* Replayable failure corpus: one JSON case per line, append-only.

   A failing (or shrunken) case is written as a single JSON-lines
   record, so `axi4mlir_fuzz --replay FILE` can re-execute exactly the
   scenarios that failed before. Blank lines and '#' comments are
   tolerated so corpora can be annotated by hand. *)

let load_result path =
  Result.map
    (fun lines ->
      List.mapi (fun i line -> (i + 1, String.trim line)) lines
      |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
      |> List.partition_map (fun (lineno, line) ->
             match Fuzz_case.of_string_result line with
             | Ok case -> Either.Left case
             | Error msg -> Either.Right (Printf.sprintf "%s:%d: %s" path lineno msg)))
    (Json.read_lines path)

let append path case = Json.write_lines ~append:true path [ Fuzz_case.to_json case ]

let save path cases = Json.write_lines path (List.map Fuzz_case.to_json cases)
