(** DHP — the hash-based candidate filter of Park, Chen & Yu (SIGMOD'95),
    reference [16] of the paper.

    While counting level 1, every 2-subset of every transaction is hashed
    into a small table of bucket counters; a pair can only be frequent if
    its bucket total reaches the threshold, so most of the quadratic
    level-2 candidate set is discarded before it is ever counted.  Levels
    ≥ 3 proceed as in Apriori. *)

open Cfq_txdb
open Cfq_mining

type outcome = {
  frequent : Frequent.t;
  c2_plain : int;  (** level-2 candidates Apriori would have counted *)
  c2_filtered : int;  (** ... and how many survive the hash filter *)
  stats : Level_stats.t;
      (** per-level rows; the level-2 row has [candidates = c2_plain] and
          [counted = c2_filtered], making the bucket filter's effect visible
          to reports and the kernel cost model *)
}

(** [mine db io ~minsup ~universe_size ~n_buckets] — exact result, one scan
    per level (the bucket pass shares the level-1 scan). *)
val mine :
  Tx_db.t -> Io_stats.t -> minsup:int -> universe_size:int -> n_buckets:int -> outcome
