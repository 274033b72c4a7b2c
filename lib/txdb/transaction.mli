(** A single market-basket transaction of the relation [trans(TID, Itemset)]. *)

open Cfq_itembase

type t = {
  tid : int;
  items : Itemset.t;
}

val make : tid:int -> items:Itemset.t -> t
val cardinal : t -> int
