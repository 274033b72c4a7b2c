(** Final pair formation — the last box of Figure 7.

    From the frequent, valid [S]- and [T]-sets, form the pairs satisfying
    every 2-var constraint of the query.  When reductions were non-tight
    (or induced), this step also discards the surviving invalid sets
    (footnote 4 of the paper).

    The join is planned per constraint shape:

    {ul
    {- a single aggregate comparison [agg1(S.A) θ agg2(T.B)] becomes a
       {e sort join}: the [T] side is sorted by its aggregate key and each
       [S]-set takes one binary search and one or two contiguous runs of
       it — O((|S|+|T|) log |T| + output);}
    {- a single [S.A = T.B] becomes a {e hash join}: each set's key (its
       sorted distinct projected values, hashed) is computed once, the [T]
       side is grouped by key, and each [S]-set takes its group as one
       run;}
    {- anything else (or a conjunction) drives off the best joinable
       constraint and verifies the residual constraints per candidate pair,
       falling back to a nested loop when nothing is joinable.}}

    All methods produce identical pairs, exactly those of {!Two_var.eval}
    (NaN and undefined aggregates included); they differ in how many 2-var
    evaluations ([checks]) they spend.  With no residual constraint a join
    spends nothing per pair: it hands out runs of an index array. *)

open Cfq_itembase
open Cfq_constr
open Cfq_mining

type join_method =
  | Nested_loop
  | Sort_join  (** driven by an aggregate comparison *)
  | Hash_join  (** driven by a value-set equality *)

type stats = {
  n_pairs : int;
  n_paired_s : int;  (** S-sets appearing in at least one valid pair *)
  n_paired_t : int;
  checks : int;  (** 2-var constraint evaluations performed *)
  join : join_method;
}

val join_method_name : join_method -> string

(** [form ~s_info ~t_info ~valid_s ~valid_t ~two_var ()] enumerates the
    valid pairs as runs: [on_run i ts lo hi] stands for the pairs
    [(valid_s.(i), valid_t.(ts.(r)))] for [lo <= r < hi], each pair exactly
    once over the whole call.  Runs come in ascending [i] (S-major); within
    an [S]-set the [T]-sets follow the join's order (ascending key for the
    sort join, ties and groups by ascending index), which is deterministic.
    [ts] belongs to the join: read it during the call only. *)
val form :
  s_info:Item_info.t ->
  t_info:Item_info.t ->
  valid_s:Frequent.entry array ->
  valid_t:Frequent.entry array ->
  two_var:Two_var.t list ->
  ?on_run:(int -> int array -> int -> int -> unit) ->
  unit ->
  stats

(** [pairwise f] is the run callback that calls [f i j] on each pair of a
    run, in order. *)
val pairwise : (int -> int -> unit) -> int -> int array -> int -> int -> unit
