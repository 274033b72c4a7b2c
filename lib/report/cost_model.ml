open Cfq_txdb

type t = { seconds_per_page : float }

let make ?(seconds_per_page = 1e-4) () =
  if seconds_per_page < 0. then invalid_arg "Cost_model.make";
  { seconds_per_page }

let default = make ()

let io_seconds t io = t.seconds_per_page *. float_of_int (Io_stats.pages_read io)
let total t ~cpu io = cpu +. io_seconds t io

let mining_cost t (r : Cfq_core.Exec.result) =
  total t ~cpu:r.Cfq_core.Exec.mining_seconds r.Cfq_core.Exec.io
