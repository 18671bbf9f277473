type t = { pass_name : string; run : Ir.op -> Ir.op }

let make pass_name run = { pass_name; run }

type pass_stat = {
  st_pass : string;
  st_seconds : float;
  st_ops_before : int;
  st_ops_after : int;
}

exception Pass_failure of { pass : string; failing_op : string; message : string }

let () =
  Printexc.register_printer (function
    | Pass_failure { pass; failing_op; message } ->
      Some
        (Printf.sprintf "Pass_failure(pass %s, op %s: %s)" pass failing_op message)
    | _ -> None)

let count_all = Ir.count_ops (fun _ -> true)

let input = "input"

(* Verification of the input and after every pass, naming the pass that
   broke it. *)
let check pass_name ir =
  match Verifier.verify_structured ir with
  | Ok () -> ()
  | Error { Verifier.failing_op; reason } ->
    raise (Pass_failure { pass = pass_name; failing_op; message = reason })

let run_pipeline ?stats ?(tracer = Trace.noop) passes root =
  check input root;
  let traced = Trace.enabled tracer and metered = Metrics.enabled Metrics.default in
  if stats = None && not (traced || metered) then
    (* Nothing listens: no clock reads, op counts, metric labels or
       trace arguments. *)
    List.fold_left
      (fun ir pass ->
        let ir = pass.run ir in
        check pass.pass_name ir;
        ir)
      root passes
  else
    (* Passes see the IR unchanged between them, so each pass's op count
       after is the next one's count before: one walk per pass. *)
    List.fold_left
      (fun (ir, ops_before) pass ->
        let t0 = Sys.time () in
        let ir = pass.run ir in
        let seconds = Sys.time () -. t0 in
        let ops_after = count_all ir in
        if metered then begin
          let labels = [ ("pass", pass.pass_name) ] in
          Metrics.incr "compiler.pass_runs" ~labels;
          Metrics.observe "compiler.pass_us" ~labels (seconds *. 1e6);
          Metrics.observe "compiler.pass_ops_after" ~labels (float_of_int ops_after)
        end;
        (* Compile-side events live on their own track with real
           (process-time) microsecond stamps — the simulated clock has
           not started yet. *)
        if traced then
          Trace.complete tracer ~cat:"pass" ~track:Trace.compile_track
            ~args:
              [ ("ops_before", Trace.Int ops_before); ("ops_after", Trace.Int ops_after) ]
            ~ts:(t0 *. 1e6) ~dur:(seconds *. 1e6) pass.pass_name;
        Option.iter
          (fun acc ->
            acc :=
              !acc
              @ [
                  {
                    st_pass = pass.pass_name;
                    st_seconds = seconds;
                    st_ops_before = ops_before;
                    st_ops_after = ops_after;
                  };
                ])
          stats;
        check pass.pass_name ir;
        (ir, ops_after))
      (root, count_all root) passes
    |> fst

let report_stats stats =
  let buf = Buffer.create 512 in
  let total = List.fold_left (fun acc s -> acc +. s.st_seconds) 0.0 stats in
  let rule = String.make 68 '-' in
  Buffer.add_string buf ("===" ^ rule ^ "===\n");
  Buffer.add_string buf "                       Pass execution timing report\n";
  Buffer.add_string buf ("===" ^ rule ^ "===\n");
  Buffer.add_string buf (Printf.sprintf "  Total Execution Time: %.4f seconds\n\n" total);
  Buffer.add_string buf "  ----Wall Time----  ----Ops (before -> after)----  ----Pass----\n";
  List.iter
    (fun s ->
      let pct = if total > 0.0 then 100.0 *. s.st_seconds /. total else 0.0 in
      Buffer.add_string buf
        (Printf.sprintf "  %8.4f (%5.1f%%)  %6d -> %-6d %15s  %s\n" s.st_seconds pct
           s.st_ops_before s.st_ops_after "" s.st_pass))
    stats;
  Buffer.add_string buf
    (Printf.sprintf "  %8.4f (100.0%%)  %31s  Total\n" total "");
  Buffer.contents buf
