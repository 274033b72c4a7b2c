(** Execution of CFQs under the three computation strategies compared in
    the paper's evaluation:

    {ul
    {- {!Plan.Apriori_plus}: mine {e all} frequent sets once, then check
       every constraint on the results — the baseline;}
    {- {!Plan.Cap_one_var}: push the 1-var constraints with CAP, check the
       2-var constraints only at pair formation;}
    {- {!Plan.Optimized}: the full Figure 7 pipeline — CAP for 1-var
       constraints, quasi-succinct reduction after level 1, iterative
       [Jmax]/[V^k] filters for sum constraints, dovetailed lattices with
       shared scans.}}

    All strategies produce the same answer pairs; they differ in how much
    counting, checking and I/O they spend getting there. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining

type ctx = {
  db : Tx_db.t;
  s_info : Item_info.t;  (** attribute table for the [S] domain *)
  t_info : Item_info.t;  (** ... and for the [T] domain (may be the same) *)
  nonneg : bool;  (** all aggregated attribute values are ≥ 0 *)
}

(** [context db info] is the common case of both variables ranging over the
    same item domain, with non-negative attributes. *)
val context : Tx_db.t -> Item_info.t -> ctx

type side_report = {
  frequent : Frequent.t;  (** sets this strategy counted and found frequent *)
  valid : Frequent.entry array;  (** frequent sets satisfying the side's 1-var constraints *)
  counters : Counters.t;
  levels : Level_stats.row list;
}

type result = {
  plan : Plan.t;
  s : side_report;
  t : side_report;
  io : Io_stats.t;
  pair_stats : Pairs.stats;
  pairs : (Frequent.entry * Frequent.entry) list;
      (** materialised only when [collect_pairs] *)
  mining_seconds : float;  (** wall-clock time of the lattice phase *)
  pair_seconds : float;  (** wall-clock time of validity filtering + pair formation *)
  notes : string list;
      (** execution trace worth surfacing, e.g. the [V^k] bound after each
          observed level of the opposite lattice *)
}

(** Total constraint-check invocations across both sides and pair
    formation. *)
val total_checks : result -> int

(** Total sets counted for support. *)
val total_counted : result -> int

(** [run ?strategy ?collect_pairs ctx q] executes the query.
    [collect_pairs] (default false) materialises the answer pairs in
    [pairs]; otherwise only [pair_stats] is produced.

    [par] parallelises every counting pass of the lattice strategies
    (Optimized, Cap_one_var, Sequential_t_first) across
    [par.Counting.domains] domains — borrowed from [par.Counting.pool]
    when given (the serving case), otherwise from a private pool created
    for this run.  Without [par], a database of at least
    [2 * Counting.default_min_rows_per_domain] rows counts on
    [Domain.recommended_domain_count ()] domains, a smaller one
    sequentially with no pool; the kernel note names the width
    ([on 2 domains]).  Answers, ccc counters, and I/O charges are
    identical to the sequential execution at every width.

    [kernel] selects the support-counting kernel (see {!Counting.kernel});
    the default [Direct2] counts levels 1 and 2 with direct arrays,
    [Trie] is the reference path.  Answers, frequent collections, ccc
    counters and I/O charges — the paper's scan per level — are
    byte-identical for either kernel, faults installed or not.  The kernel each level used appears
    in [levels] and in a summary note, which [Full_materialize] does not
    emit: it counts one explicit batch with the trie. *)
val run :
  ?strategy:Plan.strategy ->
  ?collect_pairs:bool ->
  ?par:Counting.par ->
  ?kernel:Counting.kernel ->
  ctx ->
  Query.t ->
  result

(** [run_result] is {!run} with injected faults surfaced as values: a
    [Cfq_error.Error] raised by the (possibly fault-wrapped) transaction
    store becomes [Error e], and a resource crash ([Stack_overflow],
    [Out_of_memory]) becomes [Error (Query_crash _)].  Other exceptions
    (programming errors) still propagate. *)
val run_result :
  ?strategy:Plan.strategy ->
  ?collect_pairs:bool ->
  ?par:Counting.par ->
  ?kernel:Counting.kernel ->
  ctx ->
  Query.t ->
  (result, Cfq_error.t) Stdlib.result
