(** Immutable itemsets, stored as strictly increasing arrays of items.

    This is the workhorse representation of the whole system: candidates,
    frequent sets, transactions and constraint solution sets are all values
    of this type.  All operations preserve the sorted-strict invariant, and
    [of_array]/[of_list] normalise their input (sort + dedupe). *)

type t

(** {1 Construction} *)

val empty : t
val singleton : Item.t -> t

(** [of_sorted_array a] adopts [a], which must be strictly increasing.
    Raises [Invalid_argument] otherwise.  O(n) check. *)
val of_sorted_array : Item.t array -> t

(** [unsafe_of_sorted_array a] adopts [a] without the check; the caller
    has established that [a] is strictly increasing (a decoder that checks
    while it fills). *)
val unsafe_of_sorted_array : Item.t array -> t

(** [of_array a] sorts and dedupes a copy of [a]. *)
val of_array : Item.t array -> t

val of_list : Item.t list -> t
val to_list : t -> Item.t list
val to_array : t -> Item.t array

(** [unsafe_to_array s] exposes the underlying array without copying; the
    caller must not mutate it.  For hot counting loops. *)
val unsafe_to_array : t -> Item.t array

(** {1 Observation} *)

val cardinal : t -> int
val is_empty : t -> bool
val mem : Item.t -> t -> bool

(** [get s i] is the [i]-th smallest item of [s]. *)
val get : t -> int -> Item.t

val min_item : t -> Item.t option
val max_item : t -> Item.t option

val iter : (Item.t -> unit) -> t -> unit
val fold : ('a -> Item.t -> 'a) -> 'a -> t -> 'a
val for_all : (Item.t -> bool) -> t -> bool
val exists : (Item.t -> bool) -> t -> bool
val filter : (Item.t -> bool) -> t -> t
val count : (Item.t -> bool) -> t -> int

(** {1 Set algebra} *)

val add : Item.t -> t -> t
val remove : Item.t -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val disjoint : t -> t -> bool

(** [subset_of_array sub tx] tests [sub ⊆ tx] where [tx] is a strictly
    increasing raw array (a transaction).  Used on the hot counting path. *)
val subset_of_array : t -> Item.t array -> bool

(** {1 Ordering, hashing} *)

val equal : t -> t -> bool

(** Total order: by cardinality, then lexicographically.  Within a level of
    the lattice this is the usual lexicographic candidate order. *)
val compare : t -> t -> int

val hash : t -> int

(** {1 Levelwise helpers} *)

(** [prefix_join a b] is the Apriori join: if [a] and [b] have the same size
    [k], share their first [k-1] items and [last a < last b], the size-[k+1]
    union, else [None]. *)
val prefix_join : t -> t -> t option

(** [iter_subsets_k s k f] applies [f] to every size-[k] subset of [s], in
    lexicographic order.  Subsets share no structure with [s]. *)
val iter_subsets_k : t -> int -> (t -> unit) -> unit

(** [iter_delete_one s f] applies [f] to each of the [cardinal s] subsets
    obtained by deleting exactly one item; the [d]-th call drops
    [get s d]. *)
val iter_delete_one : t -> (t -> unit) -> unit

(** [powerset s f] applies [f] to all [2^n] subsets of [s] (small sets only;
    raises [Invalid_argument] above 20 items). *)
val powerset : t -> (t -> unit) -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Hashtbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
