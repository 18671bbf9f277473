(* Fig. 11: manual Ns vs AXI4MLIR-generated flow strategies, BEFORE the
   MemRef-copy specialisation (the bottlenecked first implementation).

   The paper's shape: the generated code uses the generic element-wise
   memref copies here, so generated Ns/As/Bs trail the manual driver;
   Cs still manages to help. (Fig. 12 then diagnoses and fixes this.)
   The run fails unless, on every configuration, generated Ns is
   slower than manual Ns and generated Cs is the fastest driver. *)

let configs () =
  if !Report.quick then [ (Accel_matmul.V3, 8, 64) ]
  else
    [
      (Accel_matmul.V2, 8, 64);
      (Accel_matmul.V2, 16, 128);
      (Accel_matmul.V3, 8, 64);
      (Accel_matmul.V3, 16, 128);
      (Accel_matmul.V3, 16, 256);
    ]

let fail fmt = Printf.ksprintf failwith fmt

(* The paper's shape as a hard gate for one configuration: [drivers]
   pairs each driver the accelerator has with its time in ms. *)
let check_shape label drivers =
  let ms name = List.assoc_opt name drivers in
  (match (ms "gen Ns", ms "manual Ns") with
  | Some ns, Some manual when ns <= manual ->
    fail "fig11: %s generated Ns (%.3f ms) is not slower than manual Ns (%.3f ms)" label ns
      manual
  | _ -> ());
  match ms "gen Cs" with
  | None -> ()
  | Some cs ->
    List.iter
      (fun (name, t) ->
        if name <> "gen Cs" && cs >= t then
          fail "fig11: %s generated Cs (%.3f ms) is not faster than %s (%.3f ms)" label cs
            name t)
      drivers

let run () =
  Report.header
    "Fig. 11: manual Ns vs generated flows, generic (unspecialised) copies, task clock (ms)";
  let flows = [ "Ns"; "As"; "Bs"; "Cs" ] in
  let t =
    Tabulate.create
      (("accel", Tabulate.Left) :: ("dims", Tabulate.Right) :: ("manual Ns", Tabulate.Right)
      :: List.map (fun flow -> ("gen " ^ flow, Tabulate.Right)) flows)
  in
  let results =
    List.map
      (fun (version, size, dims) ->
        let accel = Presets.matmul ~version ~size () in
        let bench = Axi4mlir.create accel in
        let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:dims ~n:dims ~k:dims in
        let manual =
          Report.ms bench (Report.manual_matmul_counters bench accel ~flow:"Ns" ~a ~b ~c ())
        in
        let gen flow =
          if List.mem flow (Presets.matmul_flows version) then begin
            let options =
              {
                Axi4mlir.default_codegen with
                flow = Some flow;
                copy_specialization = false;
              }
            in
            Some
              (Report.ms bench
                 (Report.generated_matmul_counters bench ~options ~m:dims ~n:dims ~k:dims ~a
                    ~b ~c ()))
          end
          else None
        in
        (* measured Cs first and Ns last: the blessed baseline numbers
           its records in that order *)
        let gens = List.rev_map (fun flow -> ("gen " ^ flow, gen flow)) (List.rev flows) in
        let accel_name = Printf.sprintf "%s_%d" (Report.version_name version) size in
        Tabulate.add_row t
          (accel_name :: string_of_int dims :: Tabulate.fmt_ms manual
          :: List.map (fun (_, ms) -> Option.fold ~none:"-" ~some:Tabulate.fmt_ms ms) gens);
        ( Printf.sprintf "%s dims %d" accel_name dims,
          ("manual Ns", manual)
          :: List.filter_map (fun (name, ms) -> Option.map (fun ms -> (name, ms)) ms) gens ))
      (configs ())
  in
  Tabulate.print t;
  Report.note
    "Paper shape: with generic copies the generated Ns/As/Bs are bottlenecked relative to \
     manual Ns; stationary flows (especially Cs) still reduce time vs generated Ns.";
  List.iter (fun (label, drivers) -> check_shape label drivers) results
