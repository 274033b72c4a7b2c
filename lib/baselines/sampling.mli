(** Sampling-based frequent-set mining (Toivonen, VLDB'96 — reference [24]
    of the paper), made exact by border expansion.

    A deterministic-hash sample of the database is mined in memory at a
    lowered threshold; the sample-frequent sets plus their {e negative
    border} (the minimal sets all of whose proper subsets are candidates)
    are then counted exactly in one full scan.  If some border set turns
    out globally frequent — Toivonen's "failure" case — the border is
    expanded around the newly found sets and re-counted, until the negative
    border of the result is certified infrequent; the final answer is
    therefore exact. *)

open Cfq_txdb
open Cfq_mining

type outcome = {
  frequent : Frequent.t;
  rounds : int;  (** counting passes after the sampling pass (1 = no failure) *)
  sample_size : int;
}

(** [mine db io ~minsup ~universe_size ~sample_frac ()] with
    [sample_frac ∈ (0, 1]]; [lower] scales the in-sample threshold
    (default 0.8, i.e. 20% slack against sampling variance). *)
val mine :
  Tx_db.t ->
  Io_stats.t ->
  minsup:int ->
  universe_size:int ->
  sample_frac:float ->
  ?lower:float ->
  ?seed:int ->
  unit ->
  outcome

(** [negative_border ~universe_size frequent_sets] — the minimal itemsets
    outside the (downward-closed) collection; exposed for tests. *)
val negative_border :
  universe_size:int -> unit Cfq_itembase.Itemset.Hashtbl.t -> Cfq_itembase.Itemset.t list
