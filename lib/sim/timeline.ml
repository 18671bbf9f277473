type agent = { name : string; mutable busy_until : float }

type event = {
  ev_seq : int;
  ev_agent : string;
  ev_label : string;
  ev_start : float;
  ev_finish : float;
  ev_not_before : float;
  ev_dep : int option;
  ev_mark : bool;
}

(* The log keeps one column per event field, grown by doubling: an
   event costs a few array slots instead of a record, its boxed floats
   and a list cell, which a long run would otherwise promote one by
   one. Event [i] has [ev_seq = i]; [events] builds the records. *)
type t = {
  mutable agents : agent list;  (** in registration order (reversed) *)
  mutable next_seq : int;  (** events logged *)
  mutable names : string array;  (** agent, label *)
  mutable times : float array;  (** start, finish, not_before *)
  mutable ints : int array;  (** dep, flags: [has_dep] lor [is_mark] *)
}

let has_dep = 1
let is_mark = 2

let create () = { agents = []; next_seq = 0; names = [||]; times = [||]; ints = [||] }

let add_agent t ~name =
  let a = { name; busy_until = 0. } in
  t.agents <- a :: t.agents;
  a

let busy_until a = a.busy_until

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Claims the next event's slots, recording all but its times. *)
let append t ?dep ~mark ~agent ~label () =
  let i = t.next_seq in
  if 2 * i = Array.length t.ints then begin
    let n = Int.max 32 (2 * i) in
    t.names <- extend t.names (2 * n) "";
    t.times <- extend t.times (3 * n) 0.0;
    t.ints <- extend t.ints (2 * n) 0
  end;
  t.names.(2 * i) <- agent;
  t.names.((2 * i) + 1) <- label;
  (match dep with
  | Some d ->
    t.ints.(2 * i) <- d;
    t.ints.((2 * i) + 1) <- (if mark then has_dep lor is_mark else has_dep)
  | None -> t.ints.((2 * i) + 1) <- (if mark then is_mark else 0));
  t.next_seq <- i + 1;
  i

let[@inline] set_times t i ~start ~finish ~not_before =
  t.times.(3 * i) <- start;
  t.times.((3 * i) + 1) <- finish;
  t.times.((3 * i) + 2) <- not_before

let schedule t a ?dep ~not_before ~duration ~label () =
  let start = Float.max not_before a.busy_until in
  let finish = start +. duration in
  a.busy_until <- finish;
  set_times t (append t ?dep ~mark:false ~agent:a.name ~label ()) ~start ~finish ~not_before;
  finish

type span = { mutable span_start : float; mutable span_finish : float }

let span () = { span_start = 0.0; span_finish = 0.0 }

let mark t ?dep ~agent ~label span =
  set_times t
    (append t ?dep ~mark:true ~agent ~label ())
    ~start:span.span_start ~finish:span.span_finish ~not_before:span.span_start

let last_seq t = t.next_seq - 1

let makespan t = List.fold_left (fun acc a -> Float.max acc a.busy_until) 0. t.agents

let event t i =
  let flags = t.ints.((2 * i) + 1) in
  {
    ev_seq = i;
    ev_agent = t.names.(2 * i);
    ev_label = t.names.((2 * i) + 1);
    ev_start = t.times.(3 * i);
    ev_finish = t.times.((3 * i) + 1);
    ev_not_before = t.times.((3 * i) + 2);
    ev_dep = (if flags land has_dep <> 0 then Some t.ints.(2 * i) else None);
    ev_mark = flags land is_mark <> 0;
  }

let events t =
  List.sort
    (fun a b ->
      match compare a.ev_start b.ev_start with 0 -> compare a.ev_seq b.ev_seq | c -> c)
    (List.init t.next_seq (event t))

let reset t =
  List.iter (fun a -> a.busy_until <- 0.) t.agents;
  t.next_seq <- 0
