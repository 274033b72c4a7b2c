(** Final pair formation — the last box of Figure 7.

    From the frequent, valid [S]- and [T]-sets, form the pairs satisfying
    every 2-var constraint of the query.  When reductions were non-tight
    (or induced), this step also discards the surviving invalid sets
    (footnote 4 of the paper).

    The join is planned per constraint shape:

    {ul
    {- a single aggregate comparison [agg1(S.A) θ agg2(T.B)] becomes a
       {e sort join}: the [T] side is sorted by its aggregate key and each
       [S]-set only visits its matching range — O((|S|+|T|) log |T| +
       output);}
    {- a single [S.A = T.B] becomes a {e hash join} on the canonical
       projected value set;}
    {- anything else (or a conjunction) drives off the best joinable
       constraint and verifies the residual constraints per candidate pair,
       falling back to a nested loop when nothing is joinable.}}

    All methods produce identical pairs; they differ in how many 2-var
    evaluations ([checks]) they spend. *)

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
    valid pairs, invoking [on_pair i j] on each (in unspecified order, each
    pair exactly once): the pair is [(valid_s.(i), valid_t.(j))]. *)
val form :
  s_info:Item_info.t ->
  t_info:Item_info.t ->
  valid_s:Frequent.entry array ->
  valid_t:Frequent.entry array ->
  two_var:Two_var.t list ->
  ?on_pair:(int -> int -> unit) ->
  unit ->
  stats
