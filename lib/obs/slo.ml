(* Declarative SLOs over windowed telemetry: spec parsing, error-budget
   accounting, and multi-window burn-rate alerting with hysteresis. *)

type objective =
  | Latency of { pct : int; limit : float }
  | Availability of { target : float }

type spec = { so_raw : string; so_objective : objective; so_windows : int }

let grammar = "pP<=LIMIT[@W] (P in 50/90/95/99) or availability>=TARGET[@W]"

let valid_pcts = [ 50; 90; 95; 99 ]

let fmt_target target =
  (* canonical percentage rendering: 0.999 -> "99.9%" *)
  Printf.sprintf "%g%%" (target *. 100.0)

let objective_to_string = function
  | Latency { pct; limit } -> Printf.sprintf "p%d<=%g" pct limit
  | Availability { target } -> Printf.sprintf "availability>=%s" (fmt_target target)

let to_string s = Printf.sprintf "%s@%d" (objective_to_string s.so_objective) s.so_windows

let budget s =
  match s.so_objective with
  | Latency { pct; _ } -> float_of_int (100 - pct) /. 100.0
  | Availability { target } -> 1.0 -. target

let default_windows = 4

(* split "body@W" into (body, W) *)
let split_windows text =
  match String.index_opt text '@' with
  | None -> Ok (text, default_windows)
  | Some i ->
    let body = String.sub text 0 i in
    let suffix = String.sub text (i + 1) (String.length text - i - 1) in
    (match int_of_string_opt suffix with
    | Some w when w >= 1 -> Ok (body, w)
    | Some w -> Error (Printf.sprintf "burn-rate window count must be >= 1 (got %d)" w)
    | None -> Error (Printf.sprintf "malformed burn-rate window count %S" suffix))

let parse_availability body =
  (* body is everything after "availability" *)
  let prefix = ">=" in
  if
    String.length body < String.length prefix
    || String.sub body 0 (String.length prefix) <> prefix
  then Error "availability objectives use >= (e.g. availability>=99.9%)"
  else
    let value = String.sub body 2 (String.length body - 2) in
    let parsed =
      if String.length value > 0 && value.[String.length value - 1] = '%' then
        Option.map
          (fun v -> v /. 100.0)
          (float_of_string_opt (String.sub value 0 (String.length value - 1)))
      else float_of_string_opt value
    in
    match parsed with
    | None -> Error (Printf.sprintf "malformed availability target %S" value)
    | Some target when target <= 0.0 || target >= 1.0 ->
      Error
        (Printf.sprintf
           "availability target must be strictly between 0 and 100%% (got %s)"
           (fmt_target target))
    | Some target -> Ok (Availability { target })

let parse_latency body =
  match String.index_opt body '<' with
  | None | Some 0 ->
    Error (Printf.sprintf "malformed latency objective %S (want %s)" body grammar)
  | Some i ->
    if i + 1 >= String.length body || body.[i + 1] <> '=' then
      Error "latency objectives use <= (e.g. p99<=250000)"
    else
      let pct_text = String.sub body 1 (i - 1) in
      let limit_text = String.sub body (i + 2) (String.length body - i - 2) in
      (match int_of_string_opt pct_text with
      | None -> Error (Printf.sprintf "malformed latency percentile %S" pct_text)
      | Some pct when not (List.mem pct valid_pcts) ->
        Error
          (Printf.sprintf "unsupported latency percentile p%d (supported: %s)" pct
             (String.concat ", " (List.map (Printf.sprintf "p%d") valid_pcts)))
      | Some pct -> (
        match float_of_string_opt limit_text with
        | Some limit when limit > 0.0 -> Ok (Latency { pct; limit })
        | Some limit ->
          Error (Printf.sprintf "latency limit must be positive (got %g cycles)" limit)
        | None -> Error (Printf.sprintf "malformed latency limit %S" limit_text)))

let parse text =
  let text = String.trim text in
  if text = "" then Error ("empty SLO spec (want " ^ grammar ^ ")")
  else
    match split_windows text with
    | Error _ as e -> e
    | Ok (body, windows) ->
      let result =
        let avail = "availability" in
        if
          String.length body >= String.length avail
          && String.sub body 0 (String.length avail) = avail
        then
          parse_availability
            (String.sub body (String.length avail) (String.length body - String.length avail))
        else if String.length body > 0 && body.[0] = 'p' then parse_latency body
        else Error (Printf.sprintf "unknown SLO objective %S (want %s)" body grammar)
      in
      (match result with
      | Error _ as e -> e
      | Ok objective ->
        let spec = { so_raw = ""; so_objective = objective; so_windows = windows } in
        Ok { spec with so_raw = to_string spec })

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type window_data = { wd_total : int; wd_bad : int }

type state = Budget_ok | Firing

let state_to_string = function Budget_ok -> "ok" | Firing -> "FIRING"

type window_eval = {
  we_index : int;
  we_total : int;
  we_bad : int;
  we_burn : float;
  we_long_burn : float;
  we_state : state;
}

type transition = { tr_window : int; tr_state : state; tr_long_burn : float }

type eval = {
  sv_spec : spec;
  sv_budget : float;
  sv_fire : float;
  sv_resolve : float;
  sv_windows : window_eval list;
  sv_transitions : transition list;
  sv_total : int;
  sv_bad : int;
  sv_budget_spent : float;
  sv_fired : int;
  sv_final : state;
}

let burn_of ~budget ~total ~bad =
  if total = 0 then 0.0 else float_of_int bad /. float_of_int total /. budget

(* Alert thresholds on the burn rate; [resolve <= fire]. *)
let fire = 2.0
let resolve = 1.0

let evaluate spec (data : window_data array) =
  let b = budget spec in
  let n = Array.length data in
  let state = ref Budget_ok in
  let transitions = ref [] in
  let windows = ref [] in
  for i = 0 to n - 1 do
    let w = data.(i) in
    let short = burn_of ~budget:b ~total:w.wd_total ~bad:w.wd_bad in
    (* event-weighted long burn over the trailing so_windows windows:
       ratio of sums, not mean of ratios, so a busy bad window cannot
       be averaged away by idle neighbours *)
    let lt = ref 0 and lb = ref 0 in
    for j = max 0 (i - spec.so_windows + 1) to i do
      lt := !lt + data.(j).wd_total;
      lb := !lb + data.(j).wd_bad
    done;
    let long = burn_of ~budget:b ~total:!lt ~bad:!lb in
    let next =
      match !state with
      | Budget_ok -> if short >= fire && long >= fire then Firing else Budget_ok
      | Firing -> if long < resolve then Budget_ok else Firing
    in
    if next <> !state then
      transitions := { tr_window = i; tr_state = next; tr_long_burn = long } :: !transitions;
    state := next;
    windows :=
      {
        we_index = i;
        we_total = w.wd_total;
        we_bad = w.wd_bad;
        we_burn = short;
        we_long_burn = long;
        we_state = next;
      }
      :: !windows
  done;
  let total = Array.fold_left (fun acc w -> acc + w.wd_total) 0 data in
  let bad = Array.fold_left (fun acc w -> acc + w.wd_bad) 0 data in
  let transitions = List.rev !transitions in
  {
    sv_spec = spec;
    sv_budget = b;
    sv_fire = fire;
    sv_resolve = resolve;
    sv_windows = List.rev !windows;
    sv_transitions = transitions;
    sv_total = total;
    sv_bad = bad;
    sv_budget_spent = (if total = 0 then 0.0 else float_of_int bad /. (b *. float_of_int total));
    sv_fired = List.length (List.filter (fun t -> t.tr_state = Firing) transitions);
    sv_final = !state;
  }

let met ev = ev.sv_fired = 0 && ev.sv_budget_spent <= 1.0

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let worst_burn ev =
  List.fold_left (fun acc w -> Float.max acc w.we_long_burn) 0.0 ev.sv_windows

let render ev =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "slo %s: %s — budget spent %.0f%% (%d/%d bad), worst burn %.1fx\n"
       ev.sv_spec.so_raw
       (state_to_string ev.sv_final)
       (100.0 *. ev.sv_budget_spent)
       ev.sv_bad ev.sv_total (worst_burn ev));
  List.iter
    (fun tr ->
      Buffer.add_string buf
        (match tr.tr_state with
        | Firing ->
          Printf.sprintf "  window %d: burn-rate alert FIRING (long burn %.1fx >= %.1fx)\n"
            tr.tr_window tr.tr_long_burn ev.sv_fire
        | Budget_ok ->
          Printf.sprintf "  window %d: burn-rate alert resolved (long burn %.1fx < %.1fx)\n"
            tr.tr_window tr.tr_long_burn ev.sv_resolve))
    ev.sv_transitions;
  Buffer.contents buf

let emit_remarks ?(loc = "serve") ev =
  let pass = "slo-monitor" in
  List.iter
    (fun tr ->
      let name, msg =
        match tr.tr_state with
        | Firing ->
          ( "burn-rate-firing",
            Printf.sprintf "%s: burn-rate alert firing in window %d (long burn %.2fx)"
              ev.sv_spec.so_raw tr.tr_window tr.tr_long_burn )
        | Budget_ok ->
          ( "burn-rate-resolved",
            Printf.sprintf "%s: burn-rate alert resolved in window %d (long burn %.2fx)"
              ev.sv_spec.so_raw tr.tr_window tr.tr_long_burn )
      in
      Remarks.emit ~kind:Remarks.Analysis ~pass ~name ~loc
        ~args:
          [
            ("slo", Remarks.Str ev.sv_spec.so_raw);
            ("window", Remarks.Int tr.tr_window);
            ("long_burn", Remarks.Num tr.tr_long_burn);
          ]
        msg)
    ev.sv_transitions;
  Remarks.emit ~kind:Remarks.Analysis ~pass ~name:"budget" ~loc
    ~args:
      [
        ("slo", Remarks.Str ev.sv_spec.so_raw);
        ("budget_spent", Remarks.Num ev.sv_budget_spent);
        ("bad", Remarks.Int ev.sv_bad);
        ("total", Remarks.Int ev.sv_total);
        ("alerts_fired", Remarks.Int ev.sv_fired);
      ]
    (Printf.sprintf "%s: %.0f%% of the error budget spent (%d alert(s) fired)"
       ev.sv_spec.so_raw
       (100.0 *. ev.sv_budget_spent)
       ev.sv_fired)

let emit_metrics ?(labels = []) ev =
  let labels = ("slo", ev.sv_spec.so_raw) :: labels in
  Metrics.incr ~labels ~by:(float_of_int ev.sv_fired) "slo.alerts_fired";
  Metrics.set_gauge ~labels "slo.budget_spent" ev.sv_budget_spent;
  Metrics.set_gauge ~labels "slo.worst_burn" (worst_burn ev)

let to_json ev =
  Json.Obj
    [
      ("spec", Json.String ev.sv_spec.so_raw);
      ("budget", Json.Float ev.sv_budget);
      ("fire", Json.Float ev.sv_fire);
      ("resolve", Json.Float ev.sv_resolve);
      ( "windows",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("index", Json.Int w.we_index);
                   ("total", Json.Int w.we_total);
                   ("bad", Json.Int w.we_bad);
                   ("burn", Json.Float w.we_burn);
                   ("long_burn", Json.Float w.we_long_burn);
                   ("state", Json.String (state_to_string w.we_state));
                 ])
             ev.sv_windows) );
      ( "transitions",
        Json.List
          (List.map
             (fun tr ->
               Json.Obj
                 [
                   ("window", Json.Int tr.tr_window);
                   ("state", Json.String (state_to_string tr.tr_state));
                   ("long_burn", Json.Float tr.tr_long_burn);
                 ])
             ev.sv_transitions) );
      ("total", Json.Int ev.sv_total);
      ("bad", Json.Int ev.sv_bad);
      ("budget_spent", Json.Float ev.sv_budget_spent);
      ("alerts_fired", Json.Int ev.sv_fired);
      ("final_state", Json.String (state_to_string ev.sv_final));
    ]
