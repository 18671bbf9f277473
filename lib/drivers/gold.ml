let matmul_acc ~m ~n ~k a b c =
  if Array.length a <> m * k || Array.length b <> k * n || Array.length c <> m * n then
    invalid_arg "Gold.matmul: shape mismatch";
  Mac.matmul_acc ~m ~n ~k a b c

let matmul ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  matmul_acc ~m ~n ~k a b c;
  c

let conv_out edge ~fhw ~stride = ((edge - fhw) / stride) + 1

let conv2d ?(stride = 1) ~n ~ic ~ih ~iw ~oc ~fh ~fw input filter =
  if Array.length input <> n * ic * ih * iw then invalid_arg "Gold.conv2d: bad input size";
  if Array.length filter <> oc * ic * fh * fw then invalid_arg "Gold.conv2d: bad filter size";
  let oh = conv_out ih ~fhw:fh ~stride and ow = conv_out iw ~fhw:fw ~stride in
  if oh <= 0 || ow <= 0 then invalid_arg "Gold.conv2d: filter larger than input";
  let output = Array.make (n * oc * oh * ow) 0.0 in
  for b = 0 to n - 1 do
    for f = 0 to oc - 1 do
      for y = 0 to oh - 1 do
        for x = 0 to ow - 1 do
          let acc = ref 0.0 in
          for c = 0 to ic - 1 do
            for dy = 0 to fh - 1 do
              for dx = 0 to fw - 1 do
                let iv =
                  input.((((((b * ic) + c) * ih) + (stride * y) + dy) * iw)
                         + (stride * x) + dx)
                in
                let wv = filter.((((((f * ic) + c) * fh) + dy) * fw) + dx) in
                acc := !acc +. (iv *. wv)
              done
            done
          done;
          output.((((((b * oc) + f) * oh) + y) * ow) + x) <- !acc
        done
      done
    done
  done;
  output

let fill_deterministic ?(seed = 0x9E3779B9) data =
  let state = ref (if seed = 0 then 1 else seed) in
  let next () =
    (* xorshift32 *)
    let x = !state in
    let x = x lxor (x lsl 13) land 0xFFFFFFFF in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0xFFFFFFFF in
    state := x;
    x
  in
  Array.iteri
    (fun i _ -> data.(i) <- (float_of_int (next () land 0xFFFF) /. 32768.0) -. 1.0)
    data

let max_abs_diff a b =
  if Array.length a <> Array.length b then invalid_arg "Gold.max_abs_diff: length mismatch";
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.(i)))) a;
  !worst
