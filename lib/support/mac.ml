(* [rows * cols <= len] for non-negative operands, without forming the
   product (which could wrap). *)
let fits rows cols len = rows = 0 || cols <= len / rows

(* m-k-n order, n unrolled by 4. One check up front proves every index
   below in range, so the loops skip the per-access bounds checks. *)
let matmul_acc ~m ~n ~k (a : float array) (b : float array) (c : float array) =
  if m < 0 || n < 0 || k < 0 then invalid_arg "Mac.matmul_acc: negative dimension";
  if
    not
      (fits m k (Array.length a) && fits k n (Array.length b) && fits m n (Array.length c))
  then invalid_arg "Mac.matmul_acc: array shorter than its operand";
  let n4 = n - (n land 3) in
  for i = 0 to m - 1 do
    let a_row = i * k and c_row = i * n in
    for l = 0 to k - 1 do
      let a_il = Array.unsafe_get a (a_row + l) and b_row = l * n in
      let j = ref 0 in
      while !j < n4 do
        let cj = c_row + !j and bj = b_row + !j in
        Array.unsafe_set c cj (Array.unsafe_get c cj +. (a_il *. Array.unsafe_get b bj));
        Array.unsafe_set c (cj + 1)
          (Array.unsafe_get c (cj + 1) +. (a_il *. Array.unsafe_get b (bj + 1)));
        Array.unsafe_set c (cj + 2)
          (Array.unsafe_get c (cj + 2) +. (a_il *. Array.unsafe_get b (bj + 2)));
        Array.unsafe_set c (cj + 3)
          (Array.unsafe_get c (cj + 3) +. (a_il *. Array.unsafe_get b (bj + 3)));
        j := !j + 4
      done;
      for j = n4 to n - 1 do
        Array.unsafe_set c (c_row + j)
          (Array.unsafe_get c (c_row + j) +. (a_il *. Array.unsafe_get b (b_row + j)))
      done
    done
  done
