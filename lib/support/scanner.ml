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

let rec matches_at src pos s i =
  i = String.length s || (src.[pos + i] = s.[i] && matches_at src pos s (i + 1))

let accept_string t s =
  skip_ws t;
  if t.pos + String.length s <= t.len && matches_at t.src t.pos s 0 then begin
    t.pos <- t.pos + String.length s;
    true
  end
  else false

let expect_string t s = if not (accept_string t s) then fail t "expected '%s'" s

let skip_while t pred =
  while t.pos < t.len && pred (String.unsafe_get t.src t.pos) do
    advance t
  done

let scan_id t is_id =
  skip_ws t;
  let start = t.pos in
  skip_while t is_id;
  if t.pos = start then fail t "expected identifier";
  text_from t start

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let scan_int t =
  skip_ws t;
  let start = t.pos in
  if peek t = '-' then advance t;
  let hex = peek t = '0' && (peek_at t 1 = 'x' || peek_at t 1 = 'X') in
  if hex then t.pos <- t.pos + 2;
  let digits = t.pos in
  skip_while t (if hex then is_hex_digit else is_digit);
  if t.pos = digits then fail t "expected integer";
  match int_of_string_opt (text_from t start) with
  | Some v -> v
  | None ->
    let text = text_from t start in
    t.pos <- start;
    fail t "integer literal %s does not fit an int" text

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
