type kind =
  | Numeric
  | Categorical

type t = {
  name : string;
  kind : kind;
}

let make name kind = { name; kind }
let self = { name = "Item"; kind = Categorical }
let is_self a = String.equal a.name "Item"
let equal a b = String.equal a.name b.name && a.kind = b.kind
let pp ppf a = Format.pp_print_string ppf a.name
