(** Member generating functions for succinct constraints.

    A succinct constraint's solution space can be produced by a generating
    function rather than tested set-by-set (Definition 2 of the paper; the
    MGF machinery of the CAP paper [15]).  We normalise MGFs to the form

    {ul
    {- a {e universe filter}: every member item must satisfy all of
       [universe] (e.g. [max(S.A) ≤ c] restricts members to items with
       [A ≤ c]);}
    {- {e required groups}: for each predicate in [requires], the set must
       contain at least one witness item satisfying it (e.g.
       [min(S.A) ≤ c] requires one item with [A ≤ c]).}}

    This form is closed under conjunction and covers all domain constraints
    and all min/max aggregation constraints of the language with the two
    exceptions noted in DESIGN.md ([S.A ⊉ V]-shaped conditions, which the
    engine applies as anti-monotone filters instead, and [Ne]
    comparisons). *)

open Cfq_itembase

type t = {
  universe : Sel.t;
  requires : Sel.t list;
}

val trivial : t
val is_trivial : t -> bool

(** [of_one_var c] is the MGF of [c] if [c] is succinct and expressible in
    the normalised form; [None] otherwise. *)
val of_one_var : One_var.t -> t option

(** Conjunction of two MGFs: intersect universes, concatenate requirements. *)
val combine : t -> t -> t

val combine_all : t list -> t

(** [permits_item info t e] tests the universe filter on one item. *)
val permits_item : Item_info.t -> t -> Item.t -> bool

(** [requires_witness info t s] checks that [s] holds a witness for every
    required group. *)
val requires_witness : Item_info.t -> t -> Itemset.t -> bool

(** [satisfied info t s] = universe on every item + all witnesses present;
    for a constraint with an exact MGF this coincides with
    [One_var.eval]. *)
val satisfied : Item_info.t -> t -> Itemset.t -> bool
