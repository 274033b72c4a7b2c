(** Collections of frequent sets with their supports, organised by level. *)

open Cfq_itembase

type entry = {
  set : Itemset.t;
  support : int;
}

type t

val empty : t

(** [of_levels ls] builds from per-level entry arrays ([ls.(0)] = size-1
    sets, etc.; empty trailing levels allowed). *)
val of_levels : entry array list -> t

(** [of_entries es] groups [es] by cardinality and sorts each level by
    {!Itemset.compare} (entries of the empty set are dropped). *)
val of_entries : entry list -> t

(** Number of the deepest non-empty level (0 when empty). *)
val max_level : t -> int

(** [level t k] is the entries of size [k] (possibly [[||]]). *)
val level : t -> int -> entry array

val n_sets : t -> int

(** [support t s] is [Some n] if [s] was recorded frequent. *)
val support : t -> Itemset.t -> int option

val mem : t -> Itemset.t -> bool

(** All frequent items (the level-1 sets flattened). *)
val l1_items : t -> Itemset.t

val iter : (entry -> unit) -> t -> unit
val fold : ('a -> entry -> 'a) -> 'a -> t -> 'a
val to_list : t -> entry list

(** [filter p t] keeps the entries whose set satisfies [p]. *)
val filter : (Itemset.t -> bool) -> t -> t

(** [filter_entries p t] keeps the entries satisfying [p] (set and
    support). *)
val filter_entries : (entry -> bool) -> t -> t

(** [maximal t] is the entries whose set has no frequent proper superset —
    the compact description of the collection (cf. long-pattern mining,
    reference [3] of the paper). *)
val maximal : t -> entry list

(** [closed t] is the entries with no frequent proper superset of equal
    support — the lossless compression of the collection (every frequent
    set's support is recoverable from its smallest closed superset). *)
val closed : t -> entry list
