type t = int

let compare = Int.compare

let pp ppf i = Format.fprintf ppf "i%d" i
