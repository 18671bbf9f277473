(* Order statistics over per-pass samples, and the failure tally behind
   error_rate. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) (the default "exclusive"
   method, with its index clamping), so the spreads printed here are the
   ones the benchmark's acceptance rule computes. One sample is its own
   quartiles. *)
let quartiles = function
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | xs ->
    let a = sorted xs in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let error_rate t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted
