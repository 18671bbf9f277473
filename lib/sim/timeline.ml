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

type t = {
  mutable agents : agent list;  (** in registration order (reversed) *)
  mutable log : event list;  (** newest first *)
  mutable next_seq : int;
}

let create () = { agents = []; log = []; next_seq = 0 }

let add_agent t ~name =
  let a = { name; busy_until = 0. } in
  t.agents <- a :: t.agents;
  a

let busy_until a = a.busy_until

let schedule t a ?dep ~not_before ~duration ~label () =
  let start = Float.max not_before a.busy_until in
  let finish = start +. duration in
  a.busy_until <- finish;
  let ev =
    {
      ev_seq = t.next_seq;
      ev_agent = a.name;
      ev_label = label;
      ev_start = start;
      ev_finish = finish;
      ev_not_before = not_before;
      ev_dep = dep;
      ev_mark = false;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.log <- ev :: t.log;
  finish

let mark t ?dep ~agent ~start ~finish ~label () =
  let ev =
    {
      ev_seq = t.next_seq;
      ev_agent = agent;
      ev_label = label;
      ev_start = start;
      ev_finish = finish;
      ev_not_before = start;
      ev_dep = dep;
      ev_mark = true;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.log <- ev :: t.log

let last_seq t = t.next_seq - 1

let makespan t = List.fold_left (fun acc a -> Float.max acc a.busy_until) 0. t.agents

let events t =
  List.sort
    (fun a b ->
      match compare a.ev_start b.ev_start with 0 -> compare a.ev_seq b.ev_seq | c -> c)
    t.log

let reset t =
  List.iter (fun a -> a.busy_until <- 0.) t.agents;
  t.log <- [];
  t.next_seq <- 0
