type t =
  | Matmul of { m : int; n : int; k : int }
  | Conv of { ic : int; ih : int; iw : int; oc : int; fhw : int; stride : int }

type named = { wl_label : string; wl_workload : t }

let dims = function
  | Matmul { m; n; k } -> [ m; n; k ]
  | Conv { ic; ih; iw; oc; fhw; stride } -> [ ic; ih; iw; oc; fhw; stride ]

let to_string = function
  | Matmul { m; n; k } -> Printf.sprintf "matmul %dx%dx%d" m n k
  | Conv { ic; ih; iw; oc; fhw; stride } ->
    Printf.sprintf "conv ic=%d ih=%d iw=%d oc=%d fhw=%d stride=%d" ic ih iw oc fhw stride

let is_conv = function Conv _ -> true | Matmul _ -> false

let macs = function
  | Matmul { m; n; k } -> m * n * k
  | Conv { ic; ih; iw; oc; fhw; stride } ->
    let oh = Gold.conv_out ih ~fhw ~stride and ow = Gold.conv_out iw ~fhw ~stride in
    oc * oh * ow * ic * fhw * fhw

(* Row-sampled layer proxies: each layer cut down to its first [rows]
   output rows at full output width. Per-row work is homogeneous, so
   config rankings transfer to the full layer. *)
let resnet18_layers ?(rows = 2) () =
  List.map
    (fun (l : Resnet18.layer) ->
      let rows = min rows l.Resnet18.ohw in
      let ih = ((rows - 1) * l.Resnet18.stride) + l.Resnet18.fhw in
      {
        wl_label = "resnet18/" ^ l.Resnet18.label;
        wl_workload =
          Conv
            {
              ic = l.Resnet18.ic;
              ih;
              iw = l.Resnet18.ihw;
              oc = l.Resnet18.oc;
              fhw = l.Resnet18.fhw;
              stride = l.Resnet18.stride;
            };
      })
    Resnet18.layers

let tinybert_layers ?(batch = 1) ?(seq = 128) () =
  List.map
    (fun (s : Tinybert.matmul_shape) ->
      {
        wl_label = "tinybert/" ^ s.Tinybert.mm_name;
        wl_workload =
          Matmul
            {
              m = Tinybert.pad16 s.Tinybert.m;
              n = Tinybert.pad16 s.Tinybert.n;
              k = Tinybert.pad16 s.Tinybert.k;
            };
      })
    (Tinybert.matmul_shapes ~batch ~seq)

let spec_help =
  "expected matmul:M,N,K | conv:IC,IHW,OC,FHW[,STRIDE] | resnet18[/<label>] | tinybert"

let ints_of text = List.map int_of_string_opt (String.split_on_char ',' text)

let of_spec spec =
  let err () = Error (Printf.sprintf "bad workload spec %S (%s)" spec spec_help) in
  match String.index_opt spec ':' with
  | Some i -> (
    let kind = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match (kind, ints_of rest) with
    | "matmul", [ Some m; Some n; Some k ] when m > 0 && n > 0 && k > 0 ->
      Ok [ { wl_label = spec; wl_workload = Matmul { m; n; k } } ]
    | "conv", [ Some ic; Some ihw; Some oc; Some fhw ]
      when ic > 0 && ihw >= fhw && oc > 0 && fhw > 0 ->
      Ok
        [
          {
            wl_label = spec;
            wl_workload = Conv { ic; ih = ihw; iw = ihw; oc; fhw; stride = 1 };
          };
        ]
    | "conv", [ Some ic; Some ihw; Some oc; Some fhw; Some stride ]
      when ic > 0 && ihw >= fhw && oc > 0 && fhw > 0 && stride > 0 ->
      Ok
        [
          {
            wl_label = spec;
            wl_workload = Conv { ic; ih = ihw; iw = ihw; oc; fhw; stride };
          };
        ]
    | _ -> err ())
  | None -> (
    match spec with
    | "resnet18" -> Ok (resnet18_layers ())
    | "tinybert" -> Ok (tinybert_layers ())
    | _ ->
      (* resnet18/<label>: a single layer *)
      let prefix = "resnet18/" in
      let plen = String.length prefix in
      if String.length spec > plen && String.sub spec 0 plen = prefix then
        let label = String.sub spec plen (String.length spec - plen) in
        match
          List.find_opt (fun n -> n.wl_label = spec) (resnet18_layers ())
        with
        | Some n -> Ok [ n ]
        | None ->
          Error
            (Printf.sprintf "unknown resnet18 layer %S (valid: %s)" label
               (String.concat ", " (List.map (fun (l : Resnet18.layer) -> l.Resnet18.label) Resnet18.layers)))
      else err ())
