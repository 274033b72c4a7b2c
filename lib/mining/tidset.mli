(** Vertical tid sets — the mining layer's one vertical format.

    One charged scan materialises, for every live item, a word-packed bit
    vector over the scanned rows; the support of any set over those items
    is then a popcount intersection, with {e zero} further database I/O.
    The same tid sets serve the adaptive counting layer's vertical kernel
    ({!Counting}), FUP's delta mining ({!Incremental}) and ad-hoc probes.
    The build scan is charged to [Io_stats] exactly like the trie scan it
    replaces; supports answered from the tid sets charge nothing — see
    doc/COUNTING.md for the I/O-accounting contract.

    Tid sets may be built from a {!Projection} instead of the database:
    rows dropped by a projection with [min_len = m] cannot contain any
    candidate of cardinality >= m, so supports stay exact for every
    candidate of cardinality >= [valid_min_card]. *)

open Cfq_itembase
open Cfq_txdb

type t

(** [words_needed ~n_items ~n_rows] is the memory footprint (in words) of
    tid sets for [n_items] live items over [n_rows] rows — the planner's
    budget check. *)
val words_needed : n_items:int -> n_rows:int -> int

(** Where a build reads its rows from. *)
type source =
  | Db of Tx_db.t  (** a database or a delta: one charged scan *)
  | Projected of Projection.t
      (** a projection: one scan charged at its reduced footprint *)
  | Rows of int array array
      (** rows already in memory (a pass's projection buffer): no charge *)

(** [build ?pool ?domains ?valid_min_card io source items] runs the one
    build scan, charging it to [io], and sets the bits of the live [items]
    (unranked items of a row are ignored).  Row [r] is the [r]-th row the
    scan delivers.  With [domains > 1] the fill fans out over word-aligned
    row ranges, so no two participants touch the same word; the result is
    the same at every width.  [valid_min_card] defaults to 1. *)
val build :
  ?pool:Cfq_exec_pool.Pool.t ->
  ?domains:int ->
  ?valid_min_card:int ->
  Io_stats.t ->
  source ->
  int array ->
  t

(** [of_db db io ~universe_size] is {!build} over one charged scan of [db]
    with every item of the universe live. *)
val of_db : Tx_db.t -> Io_stats.t -> universe_size:int -> t

val n_rows : t -> int

(** Smallest candidate cardinality the tid sets answer exactly (1 when
    built from the full database). *)
val valid_min_card : t -> int

(** [covers t items] — every item has a tid set. *)
val covers : t -> int array -> bool

(** Per-call scratch for multi-way intersections. *)
type scratch

val scratch : t -> scratch

(** [support_into t scratch s] is the exact support of [s] (cardinality
    >= [valid_min_card]); the empty set has support [n_rows], and a set
    holding an item without a tid set has support 0. *)
val support_into : t -> scratch -> Itemset.t -> int

(** [support t s] is {!support_into} with a fresh scratch. *)
val support : t -> Itemset.t -> int

(** [supports ?pool ?domains t cands] batches {!support_into}.  With
    [domains > 1] the candidates fan out in contiguous ranges, each
    participant with a private scratch writing disjoint slots, so the
    result is the same at every width. *)
val supports :
  ?pool:Cfq_exec_pool.Pool.t -> ?domains:int -> t -> Itemset.t array -> int array

(** [mine t ~minsup] runs a depth-first Eclat over the tid sets and
    returns every set of support >= [minsup] over the live items, each
    level sorted by {!Itemset.compare}.  A set is extended only with items
    frequent at [minsup], and each extension's support is counted before
    its tid set is allocated. *)
val mine : t -> minsup:int -> Frequent.t
