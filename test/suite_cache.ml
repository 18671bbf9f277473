(* Tests for the set-associative LRU cache hierarchy. *)

let tiny = { Cache.size_bytes = 256; line_bytes = 32; assoc = 2 }
(* 256B / (32B * 2-way) = 4 sets *)

let test_geometry_validation () =
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "Cache: line_bytes must be a power of two") (fun () ->
      ignore (Cache.create [ { Cache.size_bytes = 256; line_bytes = 48; assoc = 2 } ]))

let test_hit_after_fill () =
  let c = Cache.create [ tiny ] in
  let r1 = Cache.access c 0 in
  Alcotest.(check int) "first is miss" 2 r1;
  let r2 = Cache.access c 4 in
  Alcotest.(check int) "same line hits" 1 r2;
  let r3 = Cache.access c 32 in
  Alcotest.(check int) "next line misses" 2 r3

let test_lru_eviction () =
  let c = Cache.create [ tiny ] in
  (* set 0 holds lines with (addr / 32) mod 4 = 0: 0, 128, 256, ... *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  (* both ways of set 0 now full; touch line 0 to make 128 the LRU *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  (* evicts 128 *)
  Alcotest.(check bool) "0 still resident" true (Cache.resident c ~level:1 0);
  Alcotest.(check bool) "128 evicted" false (Cache.resident c ~level:1 128);
  Alcotest.(check bool) "256 resident" true (Cache.resident c ~level:1 256)

let test_two_levels_inclusive () =
  let l2 = { Cache.size_bytes = 1024; line_bytes = 32; assoc = 4 } in
  let c = Cache.create [ tiny; l2 ] in
  let r1 = Cache.access c 0 in
  Alcotest.(check int) "cold miss goes to DRAM" 3 r1;
  (* thrash L1 set 0 so line 0 is evicted from L1 but stays in L2 *)
  ignore (Cache.access c 128);
  ignore (Cache.access c 256);
  Alcotest.(check bool) "line 0 gone from L1" false (Cache.resident c ~level:1 0);
  Alcotest.(check bool) "line 0 still in L2" true (Cache.resident c ~level:2 0);
  let r2 = Cache.access c 0 in
  Alcotest.(check int) "L2 hit" 2 r2

let test_flush () =
  let c = Cache.create [ tiny ] in
  ignore (Cache.access c 0);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.resident c ~level:1 0);
  let r = Cache.access c 0 in
  Alcotest.(check int) "miss after flush" 2 r

let test_empty_hierarchy () =
  let c = Cache.create [] in
  let r = Cache.access c 1234 in
  Alcotest.(check int) "straight to memory" 1 r

(* A probe reads and moves lines only inside its own set. With one way
   and with two, every set filled, accesses to one set (the first, one
   in the middle, the last) that hit it, miss it and evict from it
   leave every line of every other set resident, checked after each
   access. *)
let test_probe_stays_in_its_set () =
  List.iter
    (fun assoc ->
      let geom = { Cache.size_bytes = 256; line_bytes = 32; assoc } in
      let sets = geom.Cache.size_bytes / geom.Cache.line_bytes / assoc in
      (* the [k]-th line number of [set] *)
      let addr set k = ((k * sets) + set) * geom.Cache.line_bytes in
      List.iter
        (fun target ->
          let c = Cache.create [ geom ] in
          for set = 0 to sets - 1 do
            for way = 0 to assoc - 1 do
              ignore (Cache.access c (addr set way))
            done
          done;
          List.iter
            (fun k ->
              ignore (Cache.access c (addr target k));
              let what = Printf.sprintf "assoc %d, set %d, after line %d" assoc target k in
              Alcotest.(check bool) (what ^ ": accessed line resident") true
                (Cache.resident c ~level:1 (addr target k));
              for set = 0 to sets - 1 do
                if set <> target then
                  for way = 0 to assoc - 1 do
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: set %d way %d resident" what set way)
                      true
                      (Cache.resident c ~level:1 (addr set way))
                  done
              done)
            [ 0; assoc; assoc; assoc + 1; 0; assoc + 2; assoc + 2 ])
        [ 0; sets / 2; sets - 1 ])
    [ 1; 2 ]

(* Property: a working set smaller than one way-capacity never misses
   after the first pass (no conflict misses for sequential lines within
   a single set's associativity budget). *)
let prop_small_working_set =
  QCheck.Test.make ~name:"resident working set only hits" ~count:50
    QCheck.(int_range 1 8)
    (fun lines ->
      let c = Cache.create [ tiny ] in
      (* [lines] consecutive lines; tiny holds 8 lines total, 2 per set:
         up to 8 consecutive lines fit exactly *)
      for i = 0 to lines - 1 do
        ignore (Cache.access c (i * 32))
      done;
      let all_hit = ref true in
      for i = 0 to lines - 1 do
        let r = Cache.access c (i * 32) in
        if r <> 1 then all_hit := false
      done;
      !all_hit)

(* An independent reference model of a set-associative LRU hierarchy:
   per level, per-set most-recently-used-first lists of tags, found by
   division rather than shifts. The production implementation must
   agree with it on every access of a random address stream. *)
module Reference = struct
  type level = { geom : Cache.geometry; n_sets : int; sets : int list array }

  let create_level geom =
    let n_sets = geom.Cache.size_bytes / (geom.Cache.line_bytes * geom.Cache.assoc) in
    { geom; n_sets; sets = Array.make n_sets [] }

  let locate l addr =
    let line = addr / l.geom.Cache.line_bytes in
    (line mod l.n_sets, line / l.n_sets)

  (* Probe one level: hit or miss, the line ends up most recently used. *)
  let probe l addr =
    let set, tag = locate l addr in
    let current = l.sets.(set) in
    let hit = List.mem tag current in
    let without = List.filter (fun x -> x <> tag) current in
    l.sets.(set) <- Util.list_take l.geom.Cache.assoc (tag :: without);
    hit

  let mem l addr =
    let set, tag = locate l addr in
    List.mem tag l.sets.(set)

  let flush l = Array.fill l.sets 0 l.n_sets []

  (* Levels are probed outward until one hits, as [Cache.access] does. *)
  let access levels addr =
    let rec go i = function
      | [] -> i
      | l :: rest -> if probe l addr then i else go (i + 1) rest
    in
    go 1 levels
end

(* One level: lines of 16-64 bytes, 1-16 ways (one way, direct-mapped,
   in a third of the draws), up to 512 KiB. *)
let gen_geometry =
  let open QCheck.Gen in
  let* line_log = int_range 4 6 in
  let* assoc_log = frequency [ (1, return 0); (2, int_range 1 4) ] in
  let* size_log = int_range (line_log + assoc_log) 19 in
  return
    { Cache.size_bytes = 1 lsl size_log; line_bytes = 1 lsl line_log; assoc = 1 lsl assoc_log }

(* One or two levels, and addresses within a span of 2^8..2^21 bytes,
   so streams range from mostly hits to all misses; a flush falls
   somewhere in the stream. *)
let gen_hierarchy_case =
  let open QCheck.Gen in
  let* geoms = list_size (int_range 1 2) gen_geometry in
  let* span_log = int_range 8 21 in
  let* addresses = list_size (int_range 50 400) (int_bound ((1 lsl span_log) - 1)) in
  let* flush_at = int_bound (List.length addresses - 1) in
  return (geoms, addresses, flush_at)

let print_hierarchy_case (geoms, addresses, flush_at) =
  Printf.sprintf "levels [%s], flush at %d, addresses [%s]"
    (String.concat "; "
       (List.map
          (fun g ->
            Printf.sprintf "%d/%d/%d" g.Cache.size_bytes g.Cache.line_bytes g.Cache.assoc)
          geoms))
    flush_at
    (String.concat "; " (List.map string_of_int addresses))

(* Every access's hit level, and residency of the accessed and the
   previous address at every level, before and after a flush. *)
let prop_matches_reference_model =
  QCheck.Test.make ~name:"cache agrees with a reference LRU model" ~count:150
    (QCheck.make ~print:print_hierarchy_case gen_hierarchy_case)
    (fun (geoms, addresses, flush_at) ->
      let cache = Cache.create geoms in
      let reference = List.map Reference.create_level geoms in
      let resident_agrees addr =
        List.for_all
          (fun (level, l) -> Cache.resident cache ~level addr = Reference.mem l addr)
          (List.mapi (fun i l -> (i + 1, l)) reference)
      in
      let previous = ref 0 in
      List.for_all
        (fun (i, addr) ->
          if i = flush_at then begin
            Cache.flush cache;
            List.iter Reference.flush reference
          end;
          let agrees =
            Cache.access cache addr = Reference.access reference addr
            && resident_agrees addr && resident_agrees !previous
          in
          previous := addr;
          agrees)
        (List.mapi (fun i addr -> (i, addr)) addresses))

let tests =
  [
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "two inclusive levels" `Quick test_two_levels_inclusive;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "empty hierarchy" `Quick test_empty_hierarchy;
    Alcotest.test_case "probe stays in its set" `Quick test_probe_stays_in_its_set;
    QCheck_alcotest.to_alcotest prop_small_working_set;
    QCheck_alcotest.to_alcotest prop_matches_reference_model;
  ]
