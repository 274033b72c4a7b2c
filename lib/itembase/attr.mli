(** Item attributes.

    An attribute names a column of the auxiliary relation
    [itemInfo(Item, A1, A2, ...)].  Attributes are either {e numeric}
    (aggregable with min/max/sum/avg) or {e categorical} (usable in domain
    constraints such as [S.Type ⊆ V]).  The special attribute {!self} denotes
    the item identity itself, so that constraints such as [S ⊆ V] or
    [S ∩ T = ∅] fall out of the same machinery. *)

type kind =
  | Numeric
  | Categorical

type t = {
  name : string;
  kind : kind;
}

val make : string -> kind -> t

(** The identity pseudo-attribute: [A(item) = item id], categorical. *)
val self : t

val is_self : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
