(** 1-variable constraints [C(S)] of the CFQ language.

    These are the constraint forms of the companion paper [15] (Ng,
    Lakshmanan, Han & Pang, SIGMOD'98): domain/class constraints relating the
    value set [S.A] to a constant set, and aggregation constraints
    [agg(S.A) θ c].  Their two key properties — {e anti-monotonicity}
    (Definition 1) and {e succinctness} (Definition 2 / Lemma 1) — drive the
    CAP algorithm; this module provides evaluation and the published
    classification. *)

open Cfq_itembase

type t =
  | Dom_subset of Attr.t * Value_set.t  (** [S.A ⊆ V] *)
  | Dom_superset of Attr.t * Value_set.t  (** [V ⊆ S.A] *)
  | Dom_disjoint of Attr.t * Value_set.t  (** [S.A ∩ V = ∅] *)
  | Dom_intersect of Attr.t * Value_set.t  (** [S.A ∩ V ≠ ∅] *)
  | Dom_not_superset of Attr.t * Value_set.t  (** [S.A ⊉ V] *)
  | Agg_cmp of Agg.t * Attr.t * Cmp.t * float  (** [agg(S.A) θ c] *)
  | Card_cmp of Cmp.t * int  (** [|S| θ n] *)
  | Nonempty  (** the trivial [S ≠ ∅] *)

val to_string : t -> string

(** [pp_with_var "S" ppf c] prints in the concrete query syntax, e.g.
    ["min(S.Price) >= 400"] or ["S.Type subset {1, 2}"]. *)
val pp_with_var : string -> Format.formatter -> t -> unit

(** [eval info c s] decides whether the (non-empty) set [s] satisfies [c].
    Aggregates over the empty set are false except under [Ne]. *)
val eval : Item_info.t -> t -> Itemset.t -> bool

(** {1 Classification (CAP, SIGMOD'98)}

    The [sum] rules assume non-negative attribute values, as the paper does
    for its induced-constraint results (Section 5.1); pass
    [~nonneg:false] when the attribute may be negative and the affected
    entries degrade to "no". *)

(** [is_anti_monotone ~nonneg c]: violation is inherited by all supersets. *)
val is_anti_monotone : nonneg:bool -> t -> bool

(** [is_monotone ~nonneg c]: satisfaction is inherited by all supersets. *)
val is_monotone : nonneg:bool -> t -> bool

(** [is_succinct c]: the solution space is a succinct powerset (Lemma 1:
    domain/class and min/max aggregation constraints are; sum/avg are not). *)
val is_succinct : t -> bool

(** {1 Induced weaker constraints}

    [induce_weaker ~nonneg c] is a list of constraints implied by [c] that
    are succinct and/or anti-monotone and hence exploitable for pruning when
    [c] itself is not (e.g. [sum(S.A) ≤ c] induces the succinct
    [max(S.A) ≤ c] when values are non-negative; [avg(S.A) ≤ c] induces
    [min(S.A) ≤ c]).  Returns [[]] when nothing useful is implied. *)
val induce_weaker : nonneg:bool -> t -> t list
