let round_up n ~multiple =
  assert (multiple > 0);
  (n + multiple - 1) / multiple * multiple

let ceil_div a b =
  assert (b > 0 && a >= 0);
  (a + b - 1) / b

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  if not (is_pow2 n) then invalid_arg "Util.log2: not a power of two";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let divisors n =
  assert (n > 0);
  List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

let range n = List.init n (fun i -> i)

let product = List.fold_left ( * ) 1

let list_index p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l

let rec list_take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: list_take (n - 1) rest

let rec list_drop n l =
  match l with
  | [] -> []
  | _ :: rest -> if n <= 0 then l else list_drop (n - 1) rest

let string_of_list ?(sep = ", ") f l = String.concat sep (List.map f l)

let rec add_list buf add_item = function
  | [] -> ()
  | [ x ] -> add_item buf x
  | x :: rest ->
    add_item buf x;
    Buffer.add_string buf ", ";
    add_list buf add_item rest

let rec add_int buf n =
  if n = min_int then Buffer.add_string buf (string_of_int n)
  else if n < 0 then begin
    Buffer.add_char buf '-';
    add_int buf (-n)
  end
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let geomean = function
  | [] -> nan
  | l ->
    let n = float_of_int (List.length l) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. n)

let mean = function
  | [] -> nan
  | l ->
    List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let fmax_list = function
  | [] -> invalid_arg "Util.fmax_list: empty list"
  | x :: rest -> List.fold_left max x rest

let splitmix64_gamma = 0x9E3779B97F4A7C15L

let splitmix64_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
