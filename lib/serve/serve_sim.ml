(* The serving event loop: K timeline agents, a policy-ordered queue,
   optional admission control. Deterministic: every tie is broken by
   index or arrival order, and time only ever moves forward. *)

type params = {
  sp_accels : int;
  sp_policy : Serve_policy.t;
  sp_queue_cap : int option;
  sp_batch_max : int;
}

type request_stat = {
  rs_id : int;
  rs_model : string;
  rs_arrival : float;
  rs_accel : int;
  rs_batch : int;
  rs_start : float;
  rs_finish : float;
}

type rejection = { rj_id : int; rj_model : string; rj_arrival : float }

type accel_stat = {
  ac_id : int;
  ac_busy : float;
  ac_dispatches : int;
  ac_requests : int;
}

type outcome = {
  oc_completed : request_stat list;
  oc_rejected : rejection list;
  oc_accels : accel_stat list;
  oc_makespan : float;
  oc_dispatches : int;
}

let validate p =
  if p.sp_accels < 1 then
    Error (Printf.sprintf "need at least one accelerator instance (got %d)" p.sp_accels)
  else if p.sp_batch_max < 1 then
    Error (Printf.sprintf "batch size limit must be >= 1 (got %d)" p.sp_batch_max)
  else
    match p.sp_queue_cap with
    | Some cap when cap < 1 ->
      Error (Printf.sprintf "queue capacity must be >= 1 (got %d)" cap)
    | _ -> Ok ()

exception Bad_service of string

(* Policy selection over the queue (arrival order, all arrived by
   [now]). Returns the picked requests in arrival order.

   Batch sizing: a dispatch never coalesces more predicted work than
   an even share of the backlog's predicted total (sum of [predict]
   over the queue, divided by K). Under saturating load the share
   covers many requests and full [sp_batch_max] batches form; when the
   stream drains, the cap shrinks the lumps so the last dispatches
   spread across the accelerators instead of parking the whole tail on
   one — batching must never lose the makespan to load imbalance it
   created itself. *)
let pick p ~predict queue =
  match p.sp_policy with
  | Serve_policy.Fifo -> [ List.hd queue ]
  | Serve_policy.Sjf ->
    let key (r : Serve_request.t) = (predict r.Serve_request.rq_model, r.rq_id) in
    let best =
      List.fold_left
        (fun acc r -> if key r < key acc then r else acc)
        (List.hd queue) (List.tl queue)
    in
    [ best ]
  | Serve_policy.Batch ->
    (* the model with the most ready requests wins; ties go to the one
       whose earliest request arrived first (lowest id) *)
    let tally =
      List.fold_left
        (fun acc (r : Serve_request.t) ->
          let model = r.Serve_request.rq_model in
          let count, first_id =
            match List.assoc_opt model acc with
            | Some (c, f) -> (c + 1, f)
            | None -> (1, r.rq_id)
          in
          (model, (count, first_id)) :: List.remove_assoc model acc)
        [] queue
    in
    let chosen, _ =
      List.fold_left
        (fun (bm, (bc, bf)) (model, (c, f)) ->
          if c > bc || (c = bc && f < bf) then (model, (c, f)) else (bm, (bc, bf)))
        (List.hd tally) (List.tl tally)
    in
    let members =
      List.filter (fun (r : Serve_request.t) -> r.Serve_request.rq_model = chosen) queue
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    let queue_work =
      List.fold_left
        (fun acc (r : Serve_request.t) -> acc +. predict r.Serve_request.rq_model)
        0.0 queue
    in
    let per_request = predict chosen in
    let fair_count =
      if per_request > 0.0 then
        int_of_float (floor (queue_work /. float_of_int p.sp_accels /. per_request))
      else p.sp_batch_max
    in
    take (max 1 (min p.sp_batch_max fair_count)) members

let run ?telemetry ?service_at ?predict_at ~service ~predict p
    (requests : Serve_request.t list) =
  match validate p with
  | Error _ as e -> e
  | Ok () -> (
    (* Heterogeneity hooks: the accelerator index is known (earliest
       free) before the policy picks, so a per-instance oracle slots in
       at the dispatch site. Absent overrides fall back to the uniform
       oracles — the homogeneous path runs the exact same code. *)
    let service_for idx =
      match service_at with None -> service | Some f -> f ~accel:idx
    in
    let predict_for idx =
      match predict_at with None -> predict | Some f -> f ~accel:idx
    in
    (* Zero-cost when disabled: each hook site is one match on the
       option, with no closure built, exactly the Trace/Metrics
       discipline. Recording never feeds back into scheduling
       decisions. *)
    let tl = Timeline.create () in
    let agents =
      Array.init p.sp_accels (fun i ->
          Timeline.add_agent tl ~name:(Printf.sprintf "accel%d" i))
    in
    let busy = Array.make p.sp_accels 0.0 in
    let dispatches = Array.make p.sp_accels 0 in
    let served = Array.make p.sp_accels 0 in
    let arrivals =
      ref
        (List.stable_sort
           (fun (a : Serve_request.t) (b : Serve_request.t) ->
             compare (a.Serve_request.rq_arrival, a.rq_id) (b.rq_arrival, b.rq_id))
           requests)
    in
    let queue = ref [] in
    let completed = ref [] in
    let rejected = ref [] in
    (* finish times of dispatched requests, for the in-flight count *)
    let finishes = ref [] in
    let in_flight_at t =
      List.length !queue + List.length (List.filter (fun f -> f > t) !finishes)
    in
    let admit_up_to now =
      let rec go () =
        match !arrivals with
        | (a : Serve_request.t) :: rest when a.Serve_request.rq_arrival <= now ->
          arrivals := rest;
          (match telemetry with
          | Some tlm -> Serve_telemetry.on_arrival tlm ~at:a.rq_arrival
          | None -> ());
          let admitted =
            match p.sp_queue_cap with
            | None -> true
            | Some cap -> in_flight_at a.rq_arrival < cap
          in
          if admitted then queue := !queue @ [ a ]
          else begin
            rejected :=
              { rj_id = a.rq_id; rj_model = a.rq_model; rj_arrival = a.rq_arrival }
              :: !rejected;
            match telemetry with
            | Some tlm -> Serve_telemetry.on_reject tlm ~at:a.rq_arrival
            | None -> ()
          end;
          go ()
        | _ -> ()
      in
      go ()
    in
    let earliest_free () =
      let best = ref 0 in
      for i = 1 to p.sp_accels - 1 do
        if Timeline.busy_until agents.(i) < Timeline.busy_until agents.(!best) then
          best := i
      done;
      !best
    in
    let now = ref 0.0 in
    let running = ref true in
    match
      while !running do
        if !queue = [] then begin
          match !arrivals with
          | [] -> running := false
          | (a : Serve_request.t) :: _ ->
            now := Float.max !now a.Serve_request.rq_arrival;
            admit_up_to !now
        end
        else begin
          let idx = earliest_free () in
          (* the queue is in arrival order, so its head carries the
             earliest arrival: the accelerator can start then at the
             earliest. Requests arriving before that decision time are
             admitted first so the policy sees them. *)
          let t_d =
            Float.max
              (Timeline.busy_until agents.(idx))
              (List.hd !queue).Serve_request.rq_arrival
          in
          now := Float.max !now t_d;
          admit_up_to !now;
          let batch = pick p ~predict:(predict_for idx) !queue in
          queue :=
            List.filter
              (fun (r : Serve_request.t) ->
                not
                  (List.exists
                     (fun (m : Serve_request.t) -> m.Serve_request.rq_id = r.rq_id)
                     batch))
              !queue;
          let model = (List.hd batch).Serve_request.rq_model in
          let b = List.length batch in
          let dur = service_for idx model ~batch:b in
          if not (dur > 0.0) then
            raise
              (Bad_service
                 (Printf.sprintf "service cycles must be positive (%s, batch %d: %g)"
                    model b dur));
          let finish =
            Timeline.schedule tl agents.(idx) ~not_before:!now ~duration:dur
              ~label:(Printf.sprintf "%s x%d" model b)
              ()
          in
          let start = finish -. dur in
          busy.(idx) <- busy.(idx) +. dur;
          dispatches.(idx) <- dispatches.(idx) + 1;
          served.(idx) <- served.(idx) + b;
          List.iter
            (fun (r : Serve_request.t) ->
              finishes := finish :: !finishes;
              completed :=
                {
                  rs_id = r.Serve_request.rq_id;
                  rs_model = r.rq_model;
                  rs_arrival = r.rq_arrival;
                  rs_accel = idx;
                  rs_batch = b;
                  rs_start = start;
                  rs_finish = finish;
                }
                :: !completed)
            batch;
          match telemetry with
          | Some tlm ->
            (* queue depth after removal, in-flight including the
               batch just scheduled (its finish is in the future) *)
            Serve_telemetry.on_dispatch tlm ~at:!now ~accel:idx ~start ~finish
              ~queue:(List.length !queue) ~in_flight:(in_flight_at !now);
            List.iter
              (fun (r : Serve_request.t) ->
                Serve_telemetry.on_complete tlm ~finish
                  ~latency:(finish -. r.Serve_request.rq_arrival))
              batch
          | None -> ()
        end
      done
    with
    | () ->
      let by_id f g = compare (f : int) g in
      Ok
        {
          oc_completed =
            List.sort (fun a b -> by_id a.rs_id b.rs_id) !completed;
          oc_rejected = List.sort (fun a b -> by_id a.rj_id b.rj_id) !rejected;
          oc_accels =
            List.init p.sp_accels (fun i ->
                {
                  ac_id = i;
                  ac_busy = busy.(i);
                  ac_dispatches = dispatches.(i);
                  ac_requests = served.(i);
                });
          oc_makespan = Timeline.makespan tl;
          oc_dispatches = Array.fold_left ( + ) 0 dispatches;
        }
    | exception Bad_service msg -> Error msg)
