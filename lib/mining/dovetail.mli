(** Dovetailed computation of the [S] and [T] lattices (Sections 4–5).

    The two levelwise computations advance in lock step — one level of [S],
    one level of [T] — and their candidates are counted in a {e single}
    shared scan per level, so the I/O of frequency verification is paid
    once (the argument for dovetailing at the end of Section 5.2).  Hooks:

    {ul
    {- [after_l1] fires once both level-1 sets are known — this is where the
       query optimizer performs the quasi-succinct reduction and injects the
       resulting 1-var conditions into both sides;}
    {- [on_s_level]/[on_t_level] fire after each absorbed level — this is
       where the [V^k] bounds for iterative [sum] pruning are refreshed.}}

    Both states must have been created over the same database. *)

open Cfq_itembase
open Cfq_txdb

(** [run io ~s ~t ()] drives both lattices to exhaustion and returns both
    frequent collections.  [par] parallelises every shared counting pass
    (see {!Counting.par}); [session] attaches a counting-kernel session
    shared by both sides, and each family's label ({!Counting.label})
    lands in its side's level rows.  Answers and counters are unchanged in either case. *)
val run :
  ?par:Counting.par ->
  ?session:Counting.session ->
  Io_stats.t ->
  s:Cap.t ->
  t:Cap.t ->
  ?after_l1:(l1_s:Itemset.t -> l1_t:Itemset.t -> unit) ->
  ?on_s_level:(int -> Frequent.entry array -> unit) ->
  ?on_t_level:(int -> Frequent.entry array -> unit) ->
  unit ->
  Frequent.t * Frequent.t
