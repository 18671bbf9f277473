type labels = (string * string) list

(* Canonical label identity: sort by key, first occurrence wins on
   duplicates. *)
let canon (l : labels) =
  let dedup =
    List.fold_left (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc) [] l
  in
  List.sort (fun (a, _) (b, _) -> compare a b) dedup

let n_buckets = 64

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;  (* bucket i covers (2^(i-1), 2^i]; bucket 0 covers <= 1 *)
  mutable overflow : int;
}

type series_value = Counter of float ref | Gauge of float ref | Histogram of hist

type series = { name : string; labels : labels; value : series_value }

type t = {
  mutable on : bool;
  tbl : (string * labels, series) Hashtbl.t;
  mutable order : (string * labels) list;  (* newest first *)
  mutable amb : labels;
}

let create () = { on = false; tbl = Hashtbl.create 32; order = []; amb = [] }

let default = create ()

let enable t = t.on <- true
let disable t = t.on <- false
let enabled t = t.on

let reset t =
  Hashtbl.reset t.tbl;
  t.order <- []

let set_ambient t labels = t.amb <- canon labels

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let find_or_create t name labels make expect =
  let labels = canon (labels @ t.amb) in
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some s ->
    if kind_name s.value <> expect then
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name
           (kind_name s.value) expect);
    s
  | None ->
    let s = { name; labels; value = make () } in
    Hashtbl.replace t.tbl key s;
    t.order <- key :: t.order;
    s

let incr ?(reg = default) ?(labels = []) ?(by = 1.0) name =
  if reg.on then
    match (find_or_create reg name labels (fun () -> Counter (ref 0.0)) "counter").value with
    | Counter r -> r := !r +. by
    | Gauge _ | Histogram _ -> assert false

let set_gauge ?(reg = default) ?(labels = []) name v =
  if reg.on then
    match (find_or_create reg name labels (fun () -> Gauge (ref 0.0)) "gauge").value with
    | Gauge r -> r := v
    | Counter _ | Histogram _ -> assert false

(* Bucket index of a positive observation: the smallest i with
   v <= 2^i. frexp gives v = m * 2^e with m in [0.5, 1), so the bound
   is e, or e-1 when v is an exact power of two (m = 0.5). *)
let bucket_of v =
  if v <= 1.0 then 0
  else
    let m, e = Float.frexp v in
    if m = 0.5 then e - 1 else e

let observe ?(reg = default) ?(labels = []) name v =
  if reg.on then
    match
      (find_or_create reg name labels
         (fun () ->
           Histogram
             {
               count = 0;
               sum = 0.0;
               vmin = infinity;
               vmax = neg_infinity;
               buckets = Array.make n_buckets 0;
               overflow = 0;
             })
         "histogram")
        .value
    with
    | Histogram h ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v;
      let b = bucket_of v in
      if b >= n_buckets then h.overflow <- h.overflow + 1 else h.buckets.(b) <- h.buckets.(b) + 1
    | Counter _ | Gauge _ -> assert false

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_min : float option;
  h_max : float option;
  h_buckets : (float * int) list;
  h_overflow : int;
}

type point = Counter_v of float | Gauge_v of float | Histogram_v of histogram_view

type sample = { s_name : string; s_labels : labels; s_point : point }

let view_of_hist h =
  {
    h_count = h.count;
    h_sum = h.sum;
    h_min = (if h.count = 0 then None else Some h.vmin);
    h_max = (if h.count = 0 then None else Some h.vmax);
    h_buckets =
      List.filter_map
        (fun i -> if h.buckets.(i) > 0 then Some (Float.ldexp 1.0 i, h.buckets.(i)) else None)
        (Util.range n_buckets);
    h_overflow = h.overflow;
  }

let point_of = function
  | Counter r -> Counter_v !r
  | Gauge r -> Gauge_v !r
  | Histogram h -> Histogram_v (view_of_hist h)

let snapshot ?(reg = default) () =
  List.rev_map
    (fun key ->
      let s = Hashtbl.find reg.tbl key in
      { s_name = s.name; s_labels = s.labels; s_point = point_of s.value })
    reg.order

let counter_value ?(reg = default) ?(labels = []) name =
  match Hashtbl.find_opt reg.tbl (name, canon (labels @ reg.amb)) with
  | Some { value = Counter r; _ } | Some { value = Gauge r; _ } -> !r
  | Some { value = Histogram _; _ } | None -> 0.0

let total ?(reg = default) name =
  Hashtbl.fold
    (fun (n, _) s acc ->
      if n <> name then acc
      else
        match s.value with
        | Counter r | Gauge r -> acc +. !r
        | Histogram h -> acc +. h.sum)
    reg.tbl 0.0

let quantile view q =
  if view.h_count = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Float.max 1.0 (Float.ceil (Float.of_int view.h_count *. q)) in
    let rank = int_of_float rank in
    let clamp v =
      match (view.h_min, view.h_max) with
      | Some lo, Some hi -> Float.max lo (Float.min hi v)
      | _ -> v
    in
    let rec walk seen = function
      | [] -> (* rank falls in the overflow bucket *) Some (clamp infinity)
      | (ub, c) :: rest -> if seen + c >= rank then Some (clamp ub) else walk (seen + c) rest
    in
    walk 0 view.h_buckets
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let labels_to_json l = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) l)

let sample_to_json s =
  let base = [ ("name", Json.String s.s_name); ("labels", labels_to_json s.s_labels) ] in
  Json.Obj
    (base
    @
    match s.s_point with
    | Counter_v v -> [ ("type", Json.String "counter"); ("value", Json.Float v) ]
    | Gauge_v v -> [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
    | Histogram_v h ->
      [
        ("type", Json.String "histogram");
        ("count", Json.Int h.h_count);
        ("sum", Json.Float h.h_sum);
        ("min", match h.h_min with Some v -> Json.Float v | None -> Json.Null);
        ("max", match h.h_max with Some v -> Json.Float v | None -> Json.Null);
        ( "buckets",
          Json.List
            (List.map
               (fun (ub, c) -> Json.Obj [ ("le", Json.Float ub); ("count", Json.Int c) ])
               h.h_buckets) );
        ("overflow", Json.Int h.h_overflow);
      ])

let to_json ?(reg = default) () =
  Json.Obj
    [
      ("schema", Json.String "axi4mlir-metrics-v1");
      ("series", Json.List (List.map sample_to_json (snapshot ~reg ())));
    ]

let labels_to_text = function
  | [] -> ""
  | l ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) l)
    ^ "}"

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render ?(reg = default) () =
  let samples = snapshot ~reg () in
  if samples = [] then "(no metrics recorded)\n"
  else begin
    let buf = Buffer.create 1024 in
    List.iter
      (fun s ->
        let lbl = labels_to_text s.s_labels in
        match s.s_point with
        | Counter_v v | Gauge_v v ->
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" s.s_name lbl (fmt_value v))
        | Histogram_v h ->
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.s_name lbl h.h_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.s_name lbl (fmt_value h.h_sum));
          (* cumulative buckets, Prometheus text-format style: each
             populated bound once plus the +Inf catch-all (= _count) *)
          let bucket_line bound cum =
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                 (labels_to_text (s.s_labels @ [ ("le", bound) ]))
                 cum)
          in
          let cum = ref 0 in
          List.iter
            (fun (ub, c) ->
              cum := !cum + c;
              bucket_line (fmt_value ub) !cum)
            h.h_buckets;
          bucket_line "+Inf" h.h_count;
          List.iter
            (fun (tag, q) ->
              match quantile h q with
              | Some v ->
                Buffer.add_string buf
                  (Printf.sprintf "%s_%s%s %s\n" s.s_name tag lbl (fmt_value v))
              | None -> ())
            [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ])
      samples;
    Buffer.contents buf
  end
