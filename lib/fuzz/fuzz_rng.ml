(* Deterministic splittable PRNG (splitmix64).

   Every fuzz case derives its own stream from (root seed, case index),
   so the case sequence is identical across runs, insensitive to how
   many random draws each individual case consumes, and any case can be
   regenerated in isolation for replay or shrinking. *)

type t = { mutable state : int64 }

let mix = Util.splitmix64_mix

let create seed = { state = mix (Int64.of_int seed) }

(* One case stream per (seed, index): mixing both through splitmix keeps
   neighbouring indices decorrelated. *)
let derive ~seed ~index =
  { state = mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int (index + 1))) }

let next t =
  t.state <- Int64.add t.state Util.splitmix64_gamma;
  mix t.state

(* 62 non-negative bits. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int_range t lo hi =
  if hi < lo then invalid_arg "Fuzz_rng.int_range: empty range";
  lo + (bits t mod (hi - lo + 1))

let bool t = Int64.logand (next t) 1L = 1L

(* True with probability [pct]/100. *)
let chance t pct = int_range t 1 100 <= pct

let pick t xs =
  match xs with
  | [] -> invalid_arg "Fuzz_rng.pick: empty list"
  | _ -> List.nth xs (int_range t 0 (List.length xs - 1))
