type t = {
  mutable cycles : float;
  mutable instructions : float;
  mutable branches : float;
  mutable l1_accesses : float;
  mutable l1_misses : float;
  mutable l2_accesses : float;
  mutable l2_misses : float;
  mutable dma_transactions : float;
  mutable dma_words_sent : float;
  mutable dma_words_received : float;
  mutable accel_busy_cycles : float;
  mutable flops : float;
}

let create () =
  {
    cycles = 0.0;
    instructions = 0.0;
    branches = 0.0;
    l1_accesses = 0.0;
    l1_misses = 0.0;
    l2_accesses = 0.0;
    l2_misses = 0.0;
    dma_transactions = 0.0;
    dma_words_sent = 0.0;
    dma_words_received = 0.0;
    accel_busy_cycles = 0.0;
    flops = 0.0;
  }

(* The canonical field list: getters and setters, in declaration order.
   [fields], [of_fields], [to_json], [map2] and [accumulate] all derive
   from this pair, so adding a counter only requires extending these two
   tables (and the record). *)
let getters : (string * (t -> float)) list =
  [
    ("cycles", fun c -> c.cycles);
    ("instructions", fun c -> c.instructions);
    ("branches", fun c -> c.branches);
    ("l1_accesses", fun c -> c.l1_accesses);
    ("l1_misses", fun c -> c.l1_misses);
    ("l2_accesses", fun c -> c.l2_accesses);
    ("l2_misses", fun c -> c.l2_misses);
    ("dma_transactions", fun c -> c.dma_transactions);
    ("dma_words_sent", fun c -> c.dma_words_sent);
    ("dma_words_received", fun c -> c.dma_words_received);
    ("accel_busy_cycles", fun c -> c.accel_busy_cycles);
    ("flops", fun c -> c.flops);
  ]

let setters : (string * (t -> float -> unit)) list =
  [
    ("cycles", fun c v -> c.cycles <- v);
    ("instructions", fun c v -> c.instructions <- v);
    ("branches", fun c v -> c.branches <- v);
    ("l1_accesses", fun c v -> c.l1_accesses <- v);
    ("l1_misses", fun c v -> c.l1_misses <- v);
    ("l2_accesses", fun c v -> c.l2_accesses <- v);
    ("l2_misses", fun c v -> c.l2_misses <- v);
    ("dma_transactions", fun c v -> c.dma_transactions <- v);
    ("dma_words_sent", fun c v -> c.dma_words_sent <- v);
    ("dma_words_received", fun c v -> c.dma_words_received <- v);
    ("accel_busy_cycles", fun c v -> c.accel_busy_cycles <- v);
    ("flops", fun c v -> c.flops <- v);
  ]

let field_names = List.map fst getters

let fields c = List.map (fun (name, get) -> (name, get c)) getters

let of_fields kvs =
  let c = create () in
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name setters with
      | Some set -> set c v
      | None -> invalid_arg (Printf.sprintf "Perf_counters.of_fields: unknown field %s" name))
    kvs;
  c

let reset c = List.iter (fun (_, set) -> set c 0.0) setters

let copy c = { c with cycles = c.cycles }

let to_json c = Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) (fields c))

let of_json_result json =
  let path = "perf_counters" in
  Result.bind (Json.assoc Json.float path json) (fun kvs ->
      match List.find_opt (fun (name, _) -> not (List.mem_assoc name setters)) kvs with
      | Some (name, _) -> Json.error (path ^ "." ^ name) "unknown counter"
      | None -> Ok (of_fields kvs))

let cache_references c = c.l1_accesses +. c.l2_accesses

let task_clock_ms c ~cpu_freq_mhz = c.cycles /. (cpu_freq_mhz *. 1000.0)

let map2 f a b =
  of_fields (List.map (fun (name, get) -> (name, f (get a) (get b))) getters)

let add a b = map2 ( +. ) a b

let diff a b = map2 ( -. ) a b

let scale a factor = map2 (fun x _ -> x *. factor) a a

let accumulate target delta =
  List.iter2
    (fun (_, get) (_, set) -> set target (get target +. get delta))
    getters setters

let to_string c =
  Printf.sprintf
    "cycles=%.0f branches=%.0f cache_refs=%.0f (L1 %.0f/%.0f miss, L2 %.0f/%.0f miss) \
     dma_txn=%.0f words=%.0f/%.0f accel_cycles=%.0f flops=%.0f"
    c.cycles c.branches (cache_references c) c.l1_accesses c.l1_misses c.l2_accesses
    c.l2_misses c.dma_transactions c.dma_words_sent c.dma_words_received
    c.accel_busy_cycles c.flops
