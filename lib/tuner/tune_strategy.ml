type t = Grid | Greedy of { seed : int; budget : int option }

let to_string = function
  | Grid -> "grid"
  | Greedy { seed; budget } ->
    Printf.sprintf "greedy(seed=%d%s)" seed
      (match budget with None -> "" | Some b -> Printf.sprintf ", budget=%d" b)

let of_string ?(seed = 0) ?budget = function
  | "grid" -> Ok Grid
  | "greedy" -> Ok (Greedy { seed; budget })
  | other ->
    Error (Printf.sprintf "unknown strategy %S (valid strategies: grid, greedy)" other)

(* A per-index perturbation in [0, 1) drawn from a splitmix64 stream:
   equal-predict candidates sort in a seed-dependent but reproducible
   order. *)
let jitter ~seed i =
  let state = Int64.add (Int64.of_int ((seed * 0x10001) + 1)) (Int64.of_int (i * 2)) in
  let v = Util.splitmix64_mix (Int64.add state Util.splitmix64_gamma) in
  Int64.to_float (Int64.shift_right_logical v 11) /. 9007199254740992.0

let run strategy ~n ~predict ~neighbors ~eval =
  let best = ref None in
  let evaluated : (int, float option) Hashtbl.t = Hashtbl.create 16 in
  let evals = ref 0 in
  let eval_memo i =
    match Hashtbl.find_opt evaluated i with
    | Some r -> r
    | None ->
      incr evals;
      let r = eval i in
      Hashtbl.replace evaluated i r;
      (match r with
      | Some c -> (
        match !best with
        | Some (_, bc) when bc <= c -> ()
        | _ -> best := Some (i, c))
      | None -> ());
      r
  in
  (match strategy with
  | Grid ->
    for i = 0 to n - 1 do
      ignore (eval_memo i)
    done
  | Greedy { seed; budget } ->
    let budget = match budget with Some b -> max 1 b | None -> max 1 (n / 4) in
    let by_prediction indices =
      List.sort
        (fun a b -> compare (predict a, jitter ~seed a) (predict b, jitter ~seed b))
        indices
    in
    let ranked = by_prediction (List.init n (fun i -> i)) in
    let remaining () = budget - !evals in
    let cycles_of i =
      match Hashtbl.find_opt evaluated i with Some (Some c) -> c | _ -> infinity
    in
    let rec climb current =
      if remaining () > 0 then
        let frontier =
          by_prediction
            (List.filter (fun j -> not (Hashtbl.mem evaluated j)) (neighbors current))
        in
        let rec try_next = function
          | [] -> () (* local optimum under the evaluated neighborhood *)
          | j :: rest ->
            if remaining () <= 0 then ()
            else (
              match eval_memo j with
              | Some c when c < cycles_of current -> climb j
              | _ -> try_next rest)
        in
        try_next frontier
    in
    List.iter
      (fun i ->
        if remaining () > 0 && not (Hashtbl.mem evaluated i) then (
          ignore (eval_memo i);
          climb i))
      ranked);
  (!best, !evals)
