exception Error of string

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable comments : bool;
  mutable depth : int;
}

let create ~comments src = { src; len = String.length src; pos = 0; comments; depth = 0 }
let max_depth = 256
let at_end t = t.pos >= t.len
let pos t = t.pos
let text_from t start = String.sub t.src start (t.pos - start)

let location t =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min t.pos t.len - 1 do
    if t.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      let line, col = location t in
      raise (Error (Printf.sprintf "line %d, column %d: %s" line col msg)))
    fmt

let peek_at t k = if t.pos + k < t.len then String.unsafe_get t.src (t.pos + k) else '\000'
let peek t = peek_at t 0
let advance t = t.pos <- t.pos + 1

let rec skip_ws t =
  match peek t with
  | ' ' | '\t' | '\n' | '\r' ->
    advance t;
    skip_ws t
  | '/' when t.comments && peek_at t 1 = '/' ->
    while t.pos < t.len && t.src.[t.pos] <> '\n' do
      advance t
    done;
    skip_ws t
  | _ -> ()

let plain t f =
  let comments = t.comments in
  t.comments <- false;
  let v = f t in
  t.comments <- comments;
  v

let accept t c =
  skip_ws t;
  if t.pos < t.len && String.unsafe_get t.src t.pos = c then begin
    advance t;
    true
  end
  else false

let expect t c =
  if not (accept t c) then
    if at_end t then fail t "expected '%c', found end of input" c
    else fail t "expected '%c', found '%c'" c (peek t)

let rec same_from a i b j len =
  len = 0
  || (String.unsafe_get a i = String.unsafe_get b j && same_from a (i + 1) b (j + 1) (len - 1))

let same_bytes a i b j len =
  i >= 0 && j >= 0 && len >= 0
  && i + len <= String.length a
  && j + len <= String.length b
  && same_from a i b j len

let accept_string t s =
  skip_ws t;
  if same_bytes t.src t.pos s 0 (String.length s) then begin
    t.pos <- t.pos + String.length s;
    true
  end
  else false

let expect_string t s = if not (accept_string t s) then fail t "expected '%s'" s

let skip_while t pred =
  while t.pos < t.len && pred (String.unsafe_get t.src t.pos) do
    advance t
  done

let skip_id t is_id =
  skip_ws t;
  let start = t.pos in
  skip_while t is_id;
  if t.pos = start then fail t "expected identifier";
  start

let scan_id t is_id = text_from t (skip_id t is_id)

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Skip an integer literal; its start. *)
let skip_int t =
  skip_ws t;
  let start = t.pos in
  if peek t = '-' then advance t;
  let hex = peek t = '0' && (peek_at t 1 = 'x' || peek_at t 1 = 'X') in
  if hex then t.pos <- t.pos + 2;
  let digits = t.pos in
  skip_while t (if hex then is_hex_digit else is_digit);
  if t.pos = digits then fail t "expected integer";
  start

let too_big t start =
  let text = text_from t start in
  t.pos <- start;
  fail t "integer literal %s does not fit an int" text

let scan_int t =
  let start = skip_int t in
  match int_of_string_opt (text_from t start) with Some v -> v | None -> too_big t start

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> raise Exit

(* Hexadecimal reads as an unsigned 63-bit pattern, as [int_of_string]
   does: the accumulator may not use the top four bits before a shift. *)
let rec hex_from src i stop acc =
  if i = stop then acc
  else
    let d = digit_value (String.unsafe_get src i) in
    if acc lsr 59 <> 0 then raise Exit;
    hex_from src (i + 1) stop ((acc lsl 4) lor d)

(* Decimal accumulates minus the magnitude, so that [min_int] fits. *)
let rec dec_from src i stop acc =
  if i = stop then acc
  else
    let d = digit_value (String.unsafe_get src i) in
    if d > 9 || acc < min_int / 10 || acc * 10 < min_int + d then raise Exit;
    dec_from src (i + 1) stop ((acc * 10) - d)

let int_from t start =
  let src = t.src and stop = t.pos in
  let neg = start < stop && String.unsafe_get src start = '-' in
  let i = if neg then start + 1 else start in
  if i + 2 < stop && src.[i] = '0' && (src.[i + 1] = 'x' || src.[i + 1] = 'X') then
    let v = hex_from src (i + 2) stop 0 in
    if neg then -v else v
  else if i = stop then raise Exit
  else
    let v = dec_from src i stop 0 in
    if neg then v else if v = min_int then raise Exit else -v

let read_int t =
  let start = skip_int t in
  match int_from t start with v -> v | exception Exit -> too_big t start

let depth t = t.depth
let seek t pos = t.pos <- pos

let enter t =
  t.depth <- t.depth + 1;
  if t.depth > max_depth then fail t "nesting deeper than the limit of %d levels" max_depth

let leave t = t.depth <- t.depth - 1

let rec sep_items t ~sep ~close item acc =
  let x = item t in
  if accept t sep then sep_items t ~sep ~close item (x :: acc)
  else begin
    expect t close;
    List.rev (x :: acc)
  end

let sep_list t ~sep ~close item =
  enter t;
  let items = if accept t close then [] else sep_items t ~sep ~close item [] in
  leave t;
  items

let finish t =
  skip_ws t;
  if not (at_end t) then fail t "trailing content starting with '%c'" (peek t)
