(** Vertical tid sets — the mining layer's one vertical format.

    One charged scan materialises, for every live item, a word-packed bit
    vector over the scanned rows; the support of any set over those items
    is then a popcount intersection, with {e zero} further database I/O.
    The same tid sets serve FUP's delta mining ({!Incremental}), the
    Partition and Sampling baselines, and ad-hoc probes.  The build scan is
    charged to [Io_stats] exactly like a counting scan; supports answered
    from the tid sets charge nothing. *)

open Cfq_itembase
open Cfq_txdb

type t

(** Where a build reads its rows from. *)
type source =
  | Db of Tx_db.t  (** a database or a delta: one charged scan *)
  | Rows of int array array  (** rows already in memory: no charge *)

(** [build io source items] runs the one build scan, charging it to
    [io], and sets the bits of the live [items] (unranked items of a row
    are ignored).  Row [r] is the [r]-th row the scan delivers. *)
val build : Io_stats.t -> source -> int array -> t

(** [of_db db io ~universe_size] is {!build} over one charged scan of [db]
    with every item of the universe live. *)
val of_db : Tx_db.t -> Io_stats.t -> universe_size:int -> t

(** Per-call scratch for multi-way intersections. *)
type scratch

val scratch : t -> scratch

(** [support_into t scratch s] is the exact support of [s]; the empty set
    has support [n_rows], and a set holding an item without a tid set has
    support 0. *)
val support_into : t -> scratch -> Itemset.t -> int

(** [support t s] is {!support_into} with a fresh scratch. *)
val support : t -> Itemset.t -> int

(** [supports t cands] batches {!support_into} with one scratch. *)
val supports : t -> Itemset.t array -> int array

(** [mine t ~minsup] runs a depth-first Eclat over the tid sets and
    returns every set of support >= [minsup] over the live items, each
    level sorted by {!Itemset.compare}.  A set is extended only with items
    frequent at [minsup], and each extension's support is counted before
    its tid set is allocated. *)
val mine : t -> minsup:int -> Frequent.t
