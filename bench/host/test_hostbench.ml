(* Unit tests for the host benchmark's statistics and span accounting. *)

let close = Alcotest.float 1e-12

(* A tracer on hand-driven clock and allocation counters. *)
let manual () =
  let now = ref 0.0 and words = ref 0.0 in
  let t = Trace.create () in
  Spans.enable ~clock_ns:(fun () -> !now) ~words:(fun () -> !words) t;
  (t, now, words)

let span t name f = Spans.with_span t ~pass:0 ~unit_id:"u" name f

(* Self times of everything [t] recorded, which took [ns] and [words]. *)
let self_times ?(ns = 0.0) ?(words = 0.0) t = Spans.self_times ~ns ~words (Trace.events t)

let self_of selves name =
  match List.find_opt (fun (s : Spans.self) -> s.name = name) selves with
  | Some s -> s
  | None -> Alcotest.failf "no span named %s" name

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "one" 7.0 (Stats.median [ 7.0 ])

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (e1, e2, e3) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") e1 q1;
    Alcotest.check close (name ^ " q2") e2 q2;
    Alcotest.check close (name ^ " q3") e3 q3
  in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "1..10" one_to_ten (2.75, 5.5, 8.25);
  check "1..5" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (1.5, 3.0, 4.5);
  check "two" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check "unsorted" [ 5.0; 1.0; 4.0; 2.0; 3.0; 9.0 ] (1.75, 3.5, 6.0);
  check "one" [ 7.0 ] (7.0, 7.0, 7.0)

let test_error_rate () =
  let t = Stats.tally () in
  Alcotest.check close "empty" 0.0 (Stats.error_rate t);
  List.iter
    (fun ok -> Stats.record t ~ok)
    [ true; false; true; true; false; true; true; true ];
  Alcotest.(check int) "attempted" 8 t.attempted;
  Alcotest.(check int) "failed" 2 t.failed;
  Alcotest.check close "rate" 0.25 (Stats.error_rate t)

let test_nested () =
  let t, now, words = manual () in
  span t "a" (fun () ->
      now := !now +. 10.0;
      words := !words +. 100.0;
      span t "b" (fun () ->
          now := !now +. 5.0;
          words := !words +. 30.0);
      now := !now +. 2.0;
      words := !words +. 1.0);
  let selves = self_times ~ns:20.0 ~words:140.0 t in
  let a = self_of selves "a" and b = self_of selves "b" in
  Alcotest.check close "a self time" 12.0 a.self_ns;
  Alcotest.check close "a self words" 101.0 a.self_words;
  Alcotest.check close "b self time" 5.0 b.self_ns;
  Alcotest.check close "b self words" 30.0 b.self_words;
  let host = self_of selves "host" in
  Alcotest.check close "host: time outside every span" 3.0 host.self_ns;
  Alcotest.check close "host: words outside every span" 9.0 host.self_words

let test_siblings () =
  let t, now, _ = manual () in
  let work name dt = span t name (fun () -> now := !now +. dt) in
  span t "r" (fun () ->
      work "x" 3.0;
      now := !now +. 1.0;
      work "x" 4.0;
      work "y" 2.0);
  let selves = self_times ~ns:10.0 t in
  Alcotest.check close "r self" 1.0 (self_of selves "r").self_ns;
  Alcotest.check close "x self" 7.0 (self_of selves "x").self_ns;
  Alcotest.(check int) "x calls" 2 (self_of selves "x").calls;
  Alcotest.check close "y self" 2.0 (self_of selves "y").self_ns;
  let total = List.fold_left (fun acc (s : Spans.self) -> acc +. s.self_ns) 0.0 selves in
  Alcotest.check close "self times sum to the total" 10.0 total

let test_exception_closes () =
  let t, now, _ = manual () in
  (try
     span t "e" (fun () ->
         now := !now +. 3.0;
         raise Exit)
   with Exit -> ());
  span t "f" (fun () -> now := !now +. 1.0);
  Alcotest.(check int) "nothing left open" 0 (Trace.open_spans t);
  let selves = self_times ~ns:4.0 t in
  Alcotest.check close "e closed" 3.0 (self_of selves "e").self_ns;
  Alcotest.check close "f is a root, not e's child" 1.0 (self_of selves "f").self_ns

(* Oracle callbacks run inside Serve_sim.run: each is a child of the
   scheduler span, so the scheduler's self time excludes them. Every
   callback takes 1 and the scheduler's own work 5. *)
let test_callbacks () =
  let t, now, _ = manual () in
  let calls = ref 0 in
  let oracle v =
    span t "serve.oracle" (fun () ->
        incr calls;
        now := !now +. 1.0;
        v)
  in
  let requests =
    List.init 5 (fun i ->
        { Serve_request.rq_id = i; rq_arrival = float_of_int (10 * i); rq_model = "m" })
  in
  let params =
    {
      Serve_sim.sp_accels = 2;
      sp_policy = Serve_policy.Sjf;
      sp_queue_cap = None;
      sp_batch_max = 1;
    }
  in
  let outcome =
    span t "serve.sched" (fun () ->
        now := !now +. 5.0;
        Serve_sim.run
          ~service:(fun _ ~batch:_ -> oracle 100.0)
          ~predict:(fun _ -> oracle 1.0)
          params requests)
  in
  (match outcome with
  | Ok o -> Alcotest.(check int) "all served" 5 (List.length o.Serve_sim.oc_completed)
  | Error e -> Alcotest.fail e);
  let n = float_of_int !calls in
  let selves = self_times ~ns:(n +. 5.0) t in
  Alcotest.(check bool) "the oracle was called" true (!calls >= 5);
  Alcotest.check close "oracle self" n (self_of selves "serve.oracle").self_ns;
  Alcotest.check close "scheduler self" 5.0 (self_of selves "serve.sched").self_ns;
  Alcotest.check close "nothing outside" 0.0 (self_of selves "host").self_ns

let test_chrome () =
  let t, now, _ = manual () in
  span t "a" (fun () -> span t "b" (fun () -> now := !now +. 1000.0));
  span t "c" (fun () -> now := !now +. 1.0);
  let events = Spans.chrome_events ~pid:3 ~workload:"w" (Trace.events t) in
  let doc = Json.to_string (Spans.chrome_document events) in
  (match Spans.check_chrome (Json.of_string doc) with
  | Ok n -> Alcotest.(check int) "three spans" 3 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "every event is the workload's process" true
    (List.for_all (fun ev -> Json.to_int (Json.member "pid" ev) = 3) events);
  let ev name ph =
    Json.Obj [ ("name", Json.String name); ("ph", Json.String ph); ("pid", Json.Int 1) ]
  in
  let rejected events = Result.is_error (Spans.check_chrome (Spans.chrome_document events)) in
  Alcotest.(check bool) "crossed" true (rejected [ ev "a" "B"; ev "b" "B"; ev "a" "E" ]);
  Alcotest.(check bool) "left open" true (rejected [ ev "a" "B" ]);
  Alcotest.(check bool) "closed twice" true (rejected [ ev "a" "B"; ev "a" "E"; ev "a" "E" ])

let () =
  Alcotest.run "hostbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "error_rate counting" `Quick test_error_rate;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time and allocation" `Quick test_nested;
          Alcotest.test_case "sibling self time" `Quick test_siblings;
          Alcotest.test_case "a raising span still closes" `Quick test_exception_closes;
          Alcotest.test_case "oracle callbacks inside Serve_sim.run" `Quick test_callbacks;
          Alcotest.test_case "Chrome export balances, bad traces rejected" `Quick
            test_chrome;
        ] );
    ]
