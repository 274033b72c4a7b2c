(** Fixed-universe bit vectors.

    A dense alternative to {!Itemset} for hot inner loops over a known item
    universe: membership, intersection and subset tests are word-parallel.
    Conversions to and from {!Itemset} are provided; the levelwise engines
    keep the sorted-array representation (whose iteration order they need),
    while bit vectors serve as transaction masks and scratch sets. *)

type t

(** [create ~universe_size] is the empty set over [0 .. universe_size-1]. *)
val create : universe_size:int -> t

val of_itemset : universe_size:int -> Itemset.t -> t
val to_itemset : t -> Itemset.t

(** [add t i] / [remove t i] mutate in place.
    Raises [Invalid_argument] out of range. *)
val add : t -> Item.t -> unit

val remove : t -> Item.t -> unit
val mem : t -> Item.t -> bool

(** Population count. *)
val cardinal : t -> int

val is_empty : t -> bool

(** Binary operations allocate a fresh vector; both arguments must share a
    universe size. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val equal : t -> t -> bool

(** [inter_cardinal a b] = [cardinal (inter a b)] without allocating. *)
val inter_cardinal : t -> t -> int

val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with [src]'s bits (same universe). *)
val blit : src:t -> dst:t -> unit

(** [inter_inplace dst src] sets [dst := dst ∧ src] without allocating —
    the scratch-buffer primitive of multi-way popcount intersections. *)
val inter_inplace : t -> t -> unit
val iter : (Item.t -> unit) -> t -> unit
