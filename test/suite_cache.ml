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

let test_access_range () =
  let c = Cache.create [ tiny ] in
  let hits = ref 0 and misses = ref 0 in
  Cache.access_range c ~addr:10 ~bytes:60 ~touched:(fun level ->
      if level = 1 then incr hits else incr misses);
  (* bytes 10..69 span lines 0, 1, 2 *)
  Alcotest.(check int) "three lines probed" 3 (!hits + !misses);
  Alcotest.(check int) "all cold misses" 3 !misses;
  Cache.access_range c ~addr:10 ~bytes:60 ~touched:(fun level ->
      if level = 1 then incr hits);
  Alcotest.(check int) "now hits" 3 !hits

let test_empty_hierarchy () =
  let c = Cache.create [] in
  let r = Cache.access c 1234 in
  Alcotest.(check int) "straight to memory" 1 r

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

(* An independent reference model of one set-associative LRU level:
   per-set most-recently-used-first association lists. The production
   implementation (packed arrays + timestamps) must agree with it on
   every access of a random address stream. *)
module Reference = struct
  type t = { geom : Cache.geometry; n_sets : int; sets : int list array }

  let create geom =
    let n_sets = geom.Cache.size_bytes / (geom.Cache.line_bytes * geom.Cache.assoc) in
    { geom; n_sets; sets = Array.make n_sets [] }

  let access t addr =
    let line = addr / t.geom.Cache.line_bytes in
    let set = line mod t.n_sets in
    let tag = line / t.n_sets in
    let current = t.sets.(set) in
    let hit = List.mem tag current in
    let without = List.filter (fun x -> x <> tag) current in
    t.sets.(set) <- Util.list_take t.geom.Cache.assoc (tag :: without);
    hit
end

let prop_matches_reference_model =
  QCheck.Test.make ~name:"cache agrees with a reference LRU model" ~count:50
    QCheck.(list_of_size Gen.(50 -- 300) (int_range 0 4095))
    (fun addresses ->
      let geom = { Cache.size_bytes = 512; line_bytes = 32; assoc = 2 } in
      let cache = Cache.create [ geom ] in
      let reference = Reference.create geom in
      List.for_all
        (fun addr ->
          let hit = Cache.access cache addr = 1 in
          let ref_hit = Reference.access reference addr in
          hit = ref_hit)
        addresses)

let tests =
  [
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "two inclusive levels" `Quick test_two_levels_inclusive;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "access_range line granularity" `Quick test_access_range;
    Alcotest.test_case "empty hierarchy" `Quick test_empty_hierarchy;
    QCheck_alcotest.to_alcotest prop_small_working_set;
    QCheck_alcotest.to_alcotest prop_matches_reference_model;
  ]
