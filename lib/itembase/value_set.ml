module FSet = Set.Make (Float)

type t = FSet.t

let empty = FSet.empty
let of_list = FSet.of_list
let to_list = FSet.elements
let singleton = FSet.singleton

let cardinal = FSet.cardinal
let is_empty = FSet.is_empty
let mem = FSet.mem

let union = FSet.union
let inter = FSet.inter
let diff = FSet.diff
let subset = FSet.subset
let disjoint = FSet.disjoint
let equal = FSet.equal

let min_value s = FSet.min_elt_opt s
let max_value s = FSet.max_elt_opt s
let sum s = FSet.fold (fun v acc -> acc +. v) s 0.
let fold f acc s = FSet.fold (fun v acc -> f acc v) s acc
let for_all = FSet.for_all

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    (to_list s)
