(** The delta of one seal: which transactions a maintenance pass must
    count, and an in-memory twin of exactly those transactions.

    A seal folds the WAL's appended records into the sealed database; the
    delta descriptor pins them down as tid ranges of the {e post-seal}
    database (the segment packer is prefix-stable, so pre-seal tids keep
    their pages and the new records occupy the tail — one range per shard
    that received appends).  {!extract} reads just those ranges once —
    fault-validated, charged to the maintenance {!Cfq_txdb.Io_stats} at
    the delta's page span, not the whole database — and materialises them
    as a resident [Tx_db] twin so the shared FUP pass
    ([Cfq_mining.Incremental.update_abs]) rescans the delta for a free
    page-model-identical charge instead of re-touching the store. *)

open Cfq_txdb

type t = {
  epoch : int;  (** the epoch this seal minted *)
  base_txs : int;  (** database size before the seal *)
  delta_txs : int;
  ranges : (int * int) list;
      (** inclusive tid ranges of the delta in the post-seal database *)
  delta_pages : int;  (** pages those ranges span — the extraction charge *)
  twin : Tx_db.t;  (** resident copy of the delta transactions *)
}

(** [extract ~epoch ~base_txs ~ranges db io] reads [ranges] out of the
    post-seal [db] (fault-checked, like a shard's slice of a composite
    scan) and charges one scan of [delta_pages] pages to [io]. *)
val extract :
  epoch:int -> base_txs:int -> ranges:(int * int) list -> Tx_db.t -> Io_stats.t -> t

val union_txs : t -> int
