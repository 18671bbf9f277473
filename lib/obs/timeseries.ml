(* Fixed-width windowed time series: observations land in the window
   floor(t / width); scalar series aggregate per window, distribution
   series keep the samples so exact per-window percentiles survive. *)

type agg = Sum | Mean | Max | Last

let agg_to_string = function
  | Sum -> "sum"
  | Mean -> "mean"
  | Max -> "max"
  | Last -> "last"

(* One populated scalar window. [last]/[last_t] implement Last under
   out-of-order recording: the observation with the largest timestamp
   wins, ties to the most recently recorded. *)
type scell = {
  mutable c_count : int;
  mutable c_sum : float;
  mutable c_max : float;
  mutable c_last : float;
  mutable c_last_t : float;
}

type shape =
  | Scalar of agg * (int, scell) Hashtbl.t
  | Dist of (int, float list ref) Hashtbl.t
      (* per-window samples, newest first *)

type series = { sr_name : string; sr_shape : shape }

type t = {
  ts_window : float;
  tbl : (string, series) Hashtbl.t;
  mutable order : string list;  (* newest first *)
  mutable max_index : int;  (* highest populated window; -1 when empty *)
}

let create ~window =
  if not (window > 0.0) then
    Error (Printf.sprintf "window width must be positive (got %g cycles)" window)
  else
    Ok { ts_window = window; tbl = Hashtbl.create 16; order = []; max_index = -1 }

let window_width t = t.ts_window

let index_of t at =
  let i = int_of_float (Float.floor (at /. t.ts_window)) in
  if i < 0 then 0 else i

let shape_name = function Scalar _ -> "scalar" | Dist _ -> "distribution"

let find_or_create t name make expect_desc matches =
  match Hashtbl.find_opt t.tbl name with
  | Some s ->
    if not (matches s.sr_shape) then
      invalid_arg
        (Printf.sprintf "Timeseries: %s already recorded as a %s series, not %s" name
           (shape_name s.sr_shape) expect_desc);
    s
  | None ->
    let s = { sr_name = name; sr_shape = make () } in
    Hashtbl.replace t.tbl name s;
    t.order <- name :: t.order;
    s

let record t ?(agg = Sum) ~series ~t:at v =
  let s =
    find_or_create t series
      (fun () -> Scalar (agg, Hashtbl.create 16))
      (Printf.sprintf "a %s scalar" (agg_to_string agg))
      (function Scalar (a, _) -> a = agg | Dist _ -> false)
  in
  match s.sr_shape with
  | Dist _ -> assert false
  | Scalar (_, cells) ->
    let i = index_of t at in
    if i > t.max_index then t.max_index <- i;
    (match Hashtbl.find_opt cells i with
    | Some c ->
      c.c_count <- c.c_count + 1;
      c.c_sum <- c.c_sum +. v;
      if v > c.c_max then c.c_max <- v;
      if at >= c.c_last_t then begin
        c.c_last <- v;
        c.c_last_t <- at
      end
    | None ->
      Hashtbl.replace cells i
        { c_count = 1; c_sum = v; c_max = v; c_last = v; c_last_t = at })

let observe t ~series ~t:at v =
  let s =
    find_or_create t series
      (fun () -> Dist (Hashtbl.create 16))
      "a distribution"
      (function Dist _ -> true | Scalar _ -> false)
  in
  match s.sr_shape with
  | Scalar _ -> assert false
  | Dist cells ->
    let i = index_of t at in
    if i > t.max_index then t.max_index <- i;
    (match Hashtbl.find_opt cells i with
    | Some samples -> samples := v :: !samples
    | None -> Hashtbl.replace cells i (ref [ v ]))

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let n_windows t = t.max_index + 1

let window_start t i = float_of_int i *. t.ts_window

let series_names t = List.rev t.order

let scalar_cells fn t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some { sr_shape = Scalar (agg, cells); _ } -> Some (agg, cells)
  | Some { sr_shape = Dist _; _ } ->
    invalid_arg (Printf.sprintf "Timeseries.%s: %s is a distribution series" fn name)

let dist_cells fn t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some { sr_shape = Dist cells; _ } -> Some cells
  | Some { sr_shape = Scalar _; _ } ->
    invalid_arg (Printf.sprintf "Timeseries.%s: %s is a scalar series" fn name)

let cell_value agg c =
  match agg with
  | Sum -> c.c_sum
  | Mean -> c.c_sum /. float_of_int c.c_count
  | Max -> c.c_max
  | Last -> c.c_last

let values t name =
  let out = Array.make (n_windows t) None in
  (match scalar_cells "values" t name with
  | None -> ()
  | Some (agg, cells) ->
    Hashtbl.iter (fun i c -> if i < Array.length out then out.(i) <- Some (cell_value agg c)) cells);
  out

let counts t name =
  let out = Array.make (n_windows t) 0 in
  (match Hashtbl.find_opt t.tbl name with
  | None -> ()
  | Some { sr_shape = Scalar (_, cells); _ } ->
    Hashtbl.iter (fun i c -> if i < Array.length out then out.(i) <- c.c_count) cells
  | Some { sr_shape = Dist cells; _ } ->
    Hashtbl.iter
      (fun i samples -> if i < Array.length out then out.(i) <- List.length !samples)
      cells);
  out

let total t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> 0.0
  | Some { sr_shape = Scalar (_, cells); _ } ->
    Hashtbl.fold (fun _ c acc -> acc +. c.c_sum) cells 0.0
  | Some { sr_shape = Dist cells; _ } ->
    Hashtbl.fold (fun _ samples acc -> acc +. float_of_int (List.length !samples)) cells 0.0

(* Nearest rank: the ceil(p/100 * n)-th smallest. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (float_of_int p /. 100.0 *. float_of_int n)) in
    Some (List.nth sorted (max 0 (min (n - 1) (rank - 1))))

let dist_percentile t name ~p =
  let out = Array.make (n_windows t) None in
  (match dist_cells "dist_percentile" t name with
  | None -> ()
  | Some cells ->
    Hashtbl.iter
      (fun i samples -> if i < Array.length out then out.(i) <- percentile p !samples)
      cells);
  out

let dist_rolling_percentile t name ~p ~windows =
  let n = n_windows t in
  let out = Array.make n None in
  (match dist_cells "dist_rolling_percentile" t name with
  | None -> ()
  | Some cells ->
    let per_window =
      Array.init n (fun i ->
          match Hashtbl.find_opt cells i with Some s -> !s | None -> [])
    in
    let span = max 1 windows in
    for i = 0 to n - 1 do
      let pooled = ref [] in
      for j = max 0 (i - span + 1) to i do
        pooled := per_window.(j) @ !pooled
      done;
      out.(i) <- percentile p !pooled
    done);
  out

let dist_counts_above t name ~limit =
  let out = Array.make (n_windows t) (0, 0) in
  (match dist_cells "dist_counts_above" t name with
  | None -> ()
  | Some cells ->
    Hashtbl.iter
      (fun i samples ->
        if i < Array.length out then
          out.(i) <-
            ( List.length !samples,
              List.length (List.filter (fun v -> v > limit) !samples) ))
      cells);
  out

(* ------------------------------------------------------------------ *)
(* Rendering and export                                                *)
(* ------------------------------------------------------------------ *)

let ramp = ".:-=+*#%@"

let sparkline ?width curve =
  let curve =
    match width with
    | Some w when w > 0 && Array.length curve > w ->
      (* resample by taking each output cell's maximum, so a one-window
         burst cannot vanish into a wide neighbour *)
      let n = Array.length curve in
      Array.init w (fun cell ->
          let lo = cell * n / w and hi = ((cell + 1) * n / w) - 1 in
          let acc = ref None in
          for i = lo to max lo hi do
            match (curve.(i), !acc) with
            | None, _ -> ()
            | Some v, None -> acc := Some v
            | Some v, Some m -> if v > m then acc := Some v
          done;
          !acc)
    | _ -> curve
  in
  let vmax =
    Array.fold_left
      (fun m v -> match v with Some v when v > m -> v | _ -> m)
      0.0 curve
  in
  String.init (Array.length curve) (fun i ->
      match curve.(i) with
      | None -> ' '
      | Some v ->
        if vmax <= 0.0 then ramp.[0]
        else
          let frac = Float.max 0.0 (Float.min 1.0 (v /. vmax)) in
          ramp.[min (String.length ramp - 1) (int_of_float (frac *. float_of_int (String.length ramp)))])

let opt_json = function None -> Json.Null | Some v -> Json.Float v

let series_json t name =
  match (Hashtbl.find_opt t.tbl name : series option) with
  | None -> Json.Null
  | Some { sr_shape = Scalar (agg, _); _ } ->
    Json.Obj
      [
        ("name", Json.String name);
        ("kind", Json.String "scalar");
        ("agg", Json.String (agg_to_string agg));
        ("values", Json.List (Array.to_list (Array.map opt_json (values t name))));
      ]
  | Some { sr_shape = Dist _; _ } ->
    Json.Obj
      [
        ("name", Json.String name);
        ("kind", Json.String "dist");
        ( "counts",
          Json.List (Array.to_list (Array.map (fun c -> Json.Int c) (counts t name))) );
        ( "p50",
          Json.List (Array.to_list (Array.map opt_json (dist_percentile t name ~p:50)))
        );
        ( "p99",
          Json.List (Array.to_list (Array.map opt_json (dist_percentile t name ~p:99)))
        );
      ]

let to_json t =
  Json.Obj
    [
      ("window_cycles", Json.Float t.ts_window);
      ("windows", Json.Int (n_windows t));
      ("series", Json.List (List.map (series_json t) (series_names t)));
    ]
