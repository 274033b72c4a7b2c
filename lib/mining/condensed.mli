(** Condensed (closed-itemset) representation of a frequent collection.

    A {!Frequent.t} stores every frequent set with its support; at cache
    scale the memory budget — not compute — caps how many collections stay
    warm.  This module stores only the {e closed} sets (no proper superset
    of equal support) and reconstructs everything else on demand:

    - the support of any member is the {e maximum support over its stored
      closed supersets} (exact: every member has a closed superset of equal
      support, and anti-monotonicity bounds all others below it);
    - membership is the existence of a stored superset (exact for
      downward-closed collections: every member lies under a maximal
      member, and maximal sets are closed).

    Condensation is {e lossless by construction}: {!of_frequent} condenses
    only when it can prove the round-trip is the identity — the collection
    must be downward closed (all delete-one subsets present, with
    anti-monotone supports) and level-sorted, which is what the CAP engine
    and the FUP promotion path emit.  Anything else (e.g. a collection
    pruned by a non-anti-monotone succinct constraint) is kept raw, so
    {!to_frequent} is {e always} [of_frequent |> to_frequent == identity]
    — order, supports and membership included.

    The dense correlated workloads where the cache budget hurts are
    exactly the ones that condense well: equal-support subset families
    collapse to one closed representative (cf. the closed-itemset global
    constraint, arXiv 1604.04894). *)

(** {1 Cache byte model}

    The approximate byte weights the service cache charges; kept here so
    raw and condensed forms are priced by one model. *)

val entry_weight : Frequent.entry -> int

(** [frequent_weight f] is the raw collection's weight: a 128-byte base
    plus {!entry_weight} per entry. *)
val frequent_weight : Frequent.t -> int

(** {1 Condensed collections} *)

type t

(** [of_frequent ?force f] condenses [f] to its closed sets when the
    round-trip is provably the identity {e and} the condensed form is
    strictly smaller; otherwise it stores [f] uncondensed ([bytes =
    raw_bytes = frequent_weight f], and {!to_frequent} returns [f]
    itself).  [~force:true] condenses whenever lossless, even when not
    smaller. *)
val of_frequent : ?force:bool -> Frequent.t -> t

(** Reconstruct the full collection.  Exactly the [f] given to
    {!of_frequent}: same levels, same per-level order, same supports.
    Cost: one pass enumerating the subsets of each closed set. *)
val to_frequent : t -> Frequent.t

(** [true] when the closed form is stored (a {!to_frequent} will pay a
    reconstruction). *)
val is_condensed : t -> bool

(** Sets in the {e represented} collection (not the stored closed ones). *)
val n_sets : t -> int

(** Weight of the raw representation (what the cache would have charged
    before condensation). *)
val raw_bytes : t -> int

(** Weight as stored — the cache charge. *)
val bytes : t -> int
