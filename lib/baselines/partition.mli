(** The Partition algorithm (Savasere, Omiecinski & Navathe, VLDB'95 — the
    "partitioning" approach the paper's introduction cites): frequent-set
    mining in exactly two scans.

    The database is split into [n] partitions sized to fit in memory; each
    partition is mined locally (any itemset frequent globally must be
    locally frequent in at least one partition, at the proportional
    threshold), and the union of the local frequent sets is then counted
    exactly in one global pass. *)

open Cfq_txdb
open Cfq_mining

(** [mine db io ~minsup ~n_partitions ~universe_size] returns exactly the
    globally frequent itemsets with their true supports.  I/O accounting:
    two full scans (the per-partition pass touches every page once). *)
val mine :
  Tx_db.t ->
  Io_stats.t ->
  minsup:int ->
  n_partitions:int ->
  universe_size:int ->
  Frequent.t
