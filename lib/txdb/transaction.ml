open Cfq_itembase

type t = {
  tid : int;
  items : Itemset.t;
}

let make ~tid ~items = { tid; items }
let cardinal t = Itemset.cardinal t.items
