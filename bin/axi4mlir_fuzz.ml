(* axi4mlir-fuzz: differential fuzzing front end.

   Generates a deterministic sequence of (workload, accelerator
   configuration) cases from a root seed and runs each through the
   differential oracle: native CPU reference vs. the interpreted
   linalg-to-loops lowering vs. the full accel pipeline on the
   simulated SoC, with element-wise output comparison, perf-counter
   sanity invariants and IR round-trip checks along the way.

     dune exec bin/axi4mlir_fuzz.exe -- --seed 42 --count 500
     dune exec bin/axi4mlir_fuzz.exe -- --replay corpus.jsonl
     dune exec bin/axi4mlir_fuzz.exe -- --seed 7 --count 200 --shrink \
       --corpus failures.jsonl

   Exit status is 0 when every case passes or is cleanly rejected,
   1 when any case fails, 2 on usage errors (bad corpus file, ...). *)

open Cmdliner

let progress_interval = 50

let run_tool seed count only replay_path do_shrink corpus verbose =
  let only =
    match only with
    | None | Some "all" -> Ok None
    | Some "matmul" -> Ok (Some Fuzz_gen.Matmul_only)
    | Some "conv" -> Ok (Some Fuzz_gen.Conv_only)
    | Some other -> Error (Printf.sprintf "--only expects matmul|conv|all, got %s" other)
  in
  match only with
  | Error msg -> `Error (false, msg)
  | Ok only -> (
    let on_case ~index ~case ~outcome =
      (match outcome with
      | Fuzz_oracle.Failed _ ->
        Printf.printf "case %d FAILED: %s\n  %s\n%!"
          (if index >= 0 then index else 0)
          (Fuzz_case.to_string case)
          (Fuzz_oracle.outcome_to_string outcome)
      | _ when verbose ->
        Printf.printf "case %d: %s -> %s\n%!"
          (if index >= 0 then index else 0)
          (Fuzz_case.to_string case)
          (Fuzz_oracle.outcome_to_string outcome)
      | _ -> ());
      if (not verbose) && index > 0 && index mod progress_interval = 0 then
        Printf.printf "... %d cases\n%!" index
    in
    let report =
      match replay_path with
      | Some path -> (
        match Fuzz_corpus.load_result path with
        | Error msg -> Error msg
        | Ok ([], first :: rest) ->
          (* a corpus of which no line parses replays nothing: that is
             a corrupted file, not a passing one *)
          Error
            (Printf.sprintf "%s: no corpus line parses (%d skipped; first: %s)" path
               (1 + List.length rest) first)
        | Ok (cases, parse_errors) ->
          List.iter (fun e -> Printf.eprintf "warning: skipping %s\n%!" e) parse_errors;
          Printf.printf "replaying %d corpus case(s) from %s\n%!" (List.length cases)
            path;
          Ok (Fuzz_driver.replay ~shrink_failures:do_shrink ~on_case cases))
      | None -> (
        match Tool_common.positive ~flag:"count" count with
        | exception Failure msg -> Error msg
        | count ->
          Printf.printf "fuzzing: seed %d, %d case(s)\n%!" seed count;
          Ok (Fuzz_driver.campaign ?only ~shrink_failures:do_shrink ~on_case ~seed ~count ()))
    in
    match report with
    | Error msg -> `Error (false, msg)
    | Ok report ->
      List.iter print_endline (Fuzz_driver.report_lines report);
      (match corpus with
      | Some path when report.Fuzz_driver.failed > 0 ->
        Fuzz_driver.record_failures ~corpus:path report;
        Printf.printf "recorded %d failing case(s) to %s\n" report.Fuzz_driver.failed
          path
      | _ -> ());
      if report.Fuzz_driver.failed = 0 then `Ok () else `Error (false, "failing cases"))

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Root seed; the same seed reproduces the same case sequence.")

let count =
  Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Number of cases to run.")

let only =
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"KIND"
         ~doc:"Restrict workloads: matmul, conv or all (default).")

let replay =
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
         ~doc:"Replay a JSON-lines corpus instead of generating cases.")

let shrink =
  Arg.(value & flag & info [ "shrink" ]
         ~doc:"Delta-debug each failing case to a minimal reproducer.")

let corpus =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE"
         ~doc:"Append failing cases (shrunk if --shrink) to this JSON-lines file.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every case.")

let cmd =
  let doc = "differential fuzzing of the AXI4MLIR lowering pipeline" in
  Cmd.v
    (Cmd.info "axi4mlir-fuzz" ~doc)
    Term.(
      ret (const run_tool $ seed $ count $ only $ replay $ shrink $ corpus $ verbose))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
