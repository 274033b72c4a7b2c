(** Syntactic entailment between 1-var constraints, for subsumption reuse.

    [implies c1 c2] is a {e sound, incomplete} test that every itemset
    satisfying [c1] satisfies [c2] (over any attribute table).  It covers
    the forms that matter for query refinement: equal atoms, aggregate and
    cardinality bounds tightening their constant, and the monotone
    value-set relations (a smaller [⊆]-bound implies a larger one, etc.).
    [false] never breaks soundness of a cache reuse — it only forfeits it.

    This is the session-level counterpart of the per-query reasoning in
    {!Cfq_core.Rewrite} (which merges comparable atoms within one
    conjunction) and {!Cfq_constr.One_var.induce_weaker} (which derives
    weaker consequences of one atom). *)

open Cfq_constr

(** [implies c1 c2]: satisfying [c1] guarantees satisfying [c2]. *)
val implies : One_var.t -> One_var.t -> bool

(** [conj_implies cs c]: the conjunction of [cs] entails [c] — some atom of
    [cs] implies [c], or [c] is trivially true. *)
val conj_implies : One_var.t list -> One_var.t -> bool

(** [subsumes ~cached ~requested]: a frequent collection mined under the
    conjunction [cached] contains every set satisfying the conjunction
    [requested], i.e. [requested] entails each atom of [cached]. *)
val subsumes : cached:One_var.t list -> requested:One_var.t list -> bool

(** [widening ~cached ~requested] is the one atom of [cached] that
    [requested] does not entail, when [requested] entails every other one
    and that atom is a bound [min(X.A) >= c], [min(X.A) > c],
    [max(X.A) <= c] or [max(X.A) < c] that [requested] widens: it bounds
    the same aggregate of the same attribute in the same direction.
    [None] otherwise, in particular when two atoms are not entailed.

    A collection mined under [cached] then holds every set that satisfies
    [requested] and the atom; every other such set satisfies its
    {!negation}, a required witness group (Lemma 1), since the requested
    bound keeps the aggregate defined. *)
val widening : cached:One_var.t list -> requested:One_var.t list -> One_var.t option

(** [negation c] is the bound that holds of a set exactly when the bound
    [c] of a {!widening} does not, wherever the aggregate is a number:
    [min(X.A) < c] for [min(X.A) >= c], and so on.  Raises
    [Invalid_argument] on any other atom. *)
val negation : One_var.t -> One_var.t
