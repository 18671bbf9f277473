type t = {
  flow : string option;
  tiles : int list option;
  cpu_tiling : bool;
  copy_specialization : bool;
  coalesce_transfers : bool;
  double_buffer : bool;
  to_runtime_calls : bool;
}

let default =
  {
    flow = None;
    tiles = None;
    cpu_tiling = true;
    copy_specialization = true;
    coalesce_transfers = false;
    double_buffer = false;
    to_runtime_calls = true;
  }
