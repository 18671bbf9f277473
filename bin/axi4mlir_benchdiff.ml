(* axi4mlir-benchdiff: the benchmark regression gate.

   Compares a fresh `bench/main.exe --json DIR` run against the blessed
   baselines committed under bench/baselines/, one BENCH_<exp>.json per
   experiment, using the per-metric relative tolerances in
   Benchdiff.tolerances. Exits non-zero on any regression, missing
   point or unreadable artifact, so it can gate `dune runtest`.

     dune exec bin/axi4mlir_benchdiff.exe -- \
       --baselines bench/baselines --fresh /tmp/bench fig10 fig12
     dune exec bin/axi4mlir_benchdiff.exe -- \
       --baselines bench/baselines --fresh /tmp/bench --bless
*)

open Cmdliner

(* Experiment names present as BENCH_<exp>.json in [dir]. *)
let experiments_in dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun f ->
         if
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json"
         then Some (String.sub f 6 (String.length f - 11))
         else None)
    |> List.sort compare
  | exception Sys_error msg ->
    failwith (Printf.sprintf "cannot list %s: %s" dir msg)

let bless ~baselines ~fresh exps =
  let exps = if exps <> [] then exps else experiments_in fresh in
  if exps = [] then failwith (Printf.sprintf "no BENCH_*.json artifacts in %s" fresh);
  (try Sys.mkdir baselines 0o755 with Sys_error _ -> ());
  List.iter
    (fun exp ->
      let src = Filename.concat fresh (Benchdiff.filename exp) in
      match Benchdiff.read_file src with
      | Error msg -> failwith msg
      | Ok doc ->
        let dst = Filename.concat baselines (Benchdiff.filename exp) in
        Benchdiff.write_file dst doc;
        Printf.printf "blessed %s (%d points) -> %s\n" exp
          (List.length doc.Benchdiff.doc_points)
          dst)
    exps

let check ~baselines ~fresh exps =
  let exps = if exps <> [] then exps else experiments_in baselines in
  if exps = [] then
    failwith (Printf.sprintf "no BENCH_*.json baselines in %s" baselines);
  let failed = ref false in
  List.iter
    (fun exp ->
      let read dir =
        match Benchdiff.read_file (Filename.concat dir (Benchdiff.filename exp)) with
        | Ok doc -> Some doc
        | Error msg ->
          Printf.printf "%s: %s\n" exp msg;
          failed := true;
          None
      in
      match (read baselines, read fresh) with
      | Some baseline, Some fresh_doc ->
        if baseline.Benchdiff.doc_quick <> fresh_doc.Benchdiff.doc_quick then begin
          Printf.printf "%s: baseline and fresh run disagree on --quick\n" exp;
          failed := true
        end;
        let verdict = Benchdiff.compare_docs ~baseline ~fresh:fresh_doc in
        print_string (Benchdiff.render_verdict verdict);
        if not (Benchdiff.ok verdict) then failed := true
      | _ -> ())
    exps;
  if !failed then
    failwith "benchmark regression gate FAILED (re-bless with --bless if intended)"
  else print_endline "benchmark regression gate passed"

let run_tool baselines fresh do_bless exps =
  match
    if do_bless then bless ~baselines ~fresh exps else check ~baselines ~fresh exps
  with
  | () -> `Ok ()
  | exception Failure msg -> `Error (false, msg)

let baselines =
  Arg.(
    value
    & opt string "bench/baselines"
    & info [ "baselines" ] ~docv:"DIR" ~doc:"Directory of blessed BENCH_*.json files.")

let fresh =
  Arg.(
    required
    & opt (some string) None
    & info [ "fresh" ] ~docv:"DIR"
        ~doc:"Directory of freshly produced BENCH_*.json files (bench/main.exe --json).")

let do_bless =
  Arg.(
    value & flag
    & info [ "bless" ]
        ~doc:"Copy the fresh artifacts over the baselines instead of comparing.")

let exps =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to compare (default: all baselines).")

let cmd =
  let doc = "compare benchmark artifacts against blessed baselines" in
  Cmd.v
    (Cmd.info "axi4mlir-benchdiff" ~doc)
    Term.(ret (const run_tool $ baselines $ fresh $ do_bless $ exps))

let () = exit (Cmd.eval ~argv:(Tool_common.argv ()) cmd)
