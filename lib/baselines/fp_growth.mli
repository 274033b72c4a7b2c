(** FP-growth: frequent-set mining without candidate generation
    (Han, Pei & Yin, SIGMOD 2000 — the pattern-growth family that grew out
    of the same group's constrained-mining line).

    Two scans build an FP-tree — a prefix tree of transactions with items
    ordered by descending frequency and per-item header chains — and the
    tree is then mined recursively through conditional pattern bases,
    without ever materialising candidate sets.  Provided as an independent
    substrate and oracle next to Apriori (levelwise), Eclat (vertical) and
    Partition (two-scan). *)

open Cfq_txdb
open Cfq_mining

(** [mine db io ~minsup ~universe_size] returns all frequent itemsets with
    exact supports.  Exactly two scans are charged. *)
val mine : Tx_db.t -> Io_stats.t -> minsup:int -> universe_size:int -> Frequent.t
