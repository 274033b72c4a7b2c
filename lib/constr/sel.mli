(** Item selection predicates [σ_p(Item)].

    These are the building blocks of succinct sets (Definition 2 of the
    paper): a succinct set is expressible as [σ_p(Item)] for a selection
    predicate [p] over single items.  Member generating functions are built
    from these. *)

open Cfq_itembase

type t =
  | True
  | Cmp of Attr.t * Cmp.t * float  (** item.A θ c *)
  | In of Attr.t * Value_set.t  (** item.A ∈ V *)
  | Not_in of Attr.t * Value_set.t  (** item.A ∉ V *)
  | And of t * t

val eval : Item_info.t -> t -> Item.t -> bool

(** [conj sels] folds a conjunction, dropping [True]s. *)
val conj : t list -> t
