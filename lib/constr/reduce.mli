(** Quasi-succinct reduction of 2-var constraints (Section 4 of the paper).

    A 2-var constraint [C(S,T)] is reduced to 1-var pruning conditions
    [C1(S)] and [C2(T)] whose constants come from the level-1 frequent sets
    of the {e other} side — Figures 2 (domain constraints) and 3 (min/max
    aggregates) of the paper, generalised here to both comparison
    directions, equality, and to [sum]/[avg]/[count] aggregates.

    For quasi-succinct constraints the conditions are {e sound} (never prune
    a valid set, Definition 5); the produced [One_var.t]s are succinct.  For
    non-quasi-succinct constraints ([sum]/[avg]) we reduce the original
    constraint directly against achievable aggregate bounds, which is sound
    and subsumes the paper's Figure 4 induced-weaker-constraint conditions:
    e.g. [sum(S.A) ≤ max(T.B)] reduces to [sum(CS.A) ≤ max(L1T.B)], which is
    anti-monotone, and {!One_var.induce_weaker} then recovers the succinct
    Figure 4 condition [max(CS.A) ≤ max(L1T.B)] from it.  Tightness flags
    are set conservatively (only when a frequent-singleton witness argument
    proves the converse direction, as in Lemma 3). *)

open Cfq_itembase

type t = {
  s_conds : One_var.t list;  (** conjunction; [[]] = no pruning *)
  t_conds : One_var.t list;
  s_tight : bool;  (** every S-set passing [s_conds] is a valid S-set *)
  t_tight : bool;
}

(** [reduce ~s_info ~t_info ~l1_s ~l1_t c] decouples [c] given the frequent
    singletons of both sides.  If a side's L1 is empty there are no frequent
    sets on that side at all, and the other side's condition is the
    unsatisfiable [Card_cmp (Lt, 0)]. *)
val reduce :
  s_info:Item_info.t ->
  t_info:Item_info.t ->
  l1_s:Itemset.t ->
  l1_t:Itemset.t ->
  Two_var.t ->
  t
