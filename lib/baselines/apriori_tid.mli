(** AprioriTid — the second algorithm of Agrawal & Srikant's VLDB'94 paper
    (reference [2]): after the first pass, the database is never scanned
    again; instead each transaction is represented by the set of level-[k]
    candidates it contains, and the level-[k+1] representation is computed
    from the level-[k] one.

    Late levels shrink dramatically (transactions containing no candidate
    drop out entirely), at the price of materialising the encoded database
    in memory — the classic time/space trade against plain Apriori. *)

open Cfq_txdb
open Cfq_mining

type outcome = {
  frequent : Frequent.t;
  encoded_sizes : int list;
      (** surviving encoded transactions after each level ≥ 2, newest last *)
}

(** [mine db io ~minsup ~universe_size]: exact frequent sets, one database
    scan (the encoding pass). *)
val mine : Tx_db.t -> Io_stats.t -> minsup:int -> universe_size:int -> outcome
