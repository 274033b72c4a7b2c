(** Plain frequent-set mining: the Apriori algorithm, as the unconstrained
    special case of the {!Cap} engine. *)

open Cfq_itembase
open Cfq_txdb

type outcome = {
  frequent : Frequent.t;
  counters : Counters.t;
  stats : Level_stats.t;
}

(** [mine db info io ~minsup] computes all frequent itemsets.  [par] and
    [session] parallelise / pick counting kernels for every pass (see
    {!Counting}); the outcome is identical either way. *)
val mine :
  Tx_db.t ->
  Item_info.t ->
  Io_stats.t ->
  ?max_level:int ->
  ?par:Counting.par ->
  ?session:Counting.session ->
  minsup:int ->
  unit ->
  outcome
