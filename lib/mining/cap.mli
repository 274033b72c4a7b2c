(** The CAP levelwise mining engine (Ng, Lakshmanan, Han & Pang,
    SIGMOD'98), extended with the hooks this paper's optimizer needs.

    CAP pushes a compiled constraint {!Cfq_constr.Bundle} into an
    Apriori-style levelwise computation:

    {ul
    {- the MGF {e universe filter} restricts the item base before level 1
       (generate-only, at most one constraint check per item);}
    {- MGF {e required witness groups} switch candidate generation to
       witness-extension mode, so sets without a witness are never
       counted;}
    {- {e anti-monotone} checks are applied to candidates at generation
       time;}
    {- deferred constraints are left to the caller to check on the
       results.}}

    The engine is exposed as a resumable state machine
    ([next_candidates] / [absorb]) so that two lattices can be {e dovetailed}
    with shared scans, constraints can be injected after level 1 (the
    quasi-succinct reduction), and an external level filter (the
    [Jmax]/[V^k] pruning of Section 5.2) can be installed; [run] is the
    standalone driver. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_constr

type t

(** [create db info ~minsup bundle] starts a run.  [minsup] is an absolute
    support count; [max_level] optionally caps the lattice depth. *)
val create : Tx_db.t -> Item_info.t -> ?max_level:int -> minsup:int -> Bundle.t -> t

val counters : t -> Counters.t
val stats : t -> Level_stats.t
val bundle : t -> Bundle.t
val db : t -> Tx_db.t

(** Last completed level. *)
val level : t -> int

(** Frequent items passing the universe filter (valid after level 1). *)
val frequent_items : t -> Item.t array

(** [set_extra_filter t f] installs an additional admission predicate on
    candidates (e.g. [sum(CS.A) ≤ V^k]); it must be sound in the
    anti-monotone sense for completeness of deeper levels.  Once a filter
    is installed every level is generated explicitly and filtered. *)
val set_extra_filter : t -> (Itemset.t -> bool) -> unit

(** [add_constraints ~nonneg t cs] injects further 1-var constraints —
    the reduction step after level 1.  Must be called before the level-2
    candidates are generated. *)
val add_constraints : nonneg:bool -> t -> One_var.t list -> unit

(** [next_candidates t] generates the next level's candidates, or [None]
    when the lattice is exhausted.  Must be followed by [absorb].

    When admission is trivial — the bundle has no anti-monotone check and
    no extra filter is installed — levels 1 and 2 stay implicit: level 1
    is {!Candidate.Items} of the permitted items, level 2
    {!Candidate.Pairs} of the frequent items, or
    {!Candidate.Witness_pairs} when an MGF witness group drives
    generation, and deeper levels skip the filter.  Otherwise every level
    is explicit, filtered by the admission test, which charges one
    constraint check per anti-monotone check per candidate.  Under a
    witness group the explicit levels above 1 are
    {!Candidate.Witness_sets}, so counting may skip the rows holding no
    witness, and {!Candidate.Sets} otherwise.  [candidates_generated] is
    charged {!Candidate.count} of the generated level either way. *)
val next_candidates : t -> Candidate.t option

(** [absorb t supports] consumes the supports of the candidates from the
    preceding [next_candidates] (counted by {!Counting.count_pass}) and
    returns the new frequent level, in {!Itemset.compare} order: only the
    frequent candidates become itemsets ({!Counting.frequent}).  The
    {!Level_stats} row carries the supports' kernel label
    ({!Counting.label}). *)
val absorb : t -> Counting.supports -> Frequent.entry array

(** [step t io] runs one level — [next_candidates], one counting pass,
    [absorb] — and is [false] once the
    lattice is exhausted.  [par] and [session] are as for {!run}. *)
val step : ?par:Counting.par -> ?session:Counting.session -> t -> Io_stats.t -> bool

(** [run t io] drives the state machine to exhaustion with one scan per
    level, returning all counted frequent sets.  [par] parallelises every
    counting pass (see {!Counting.par}); [session] attaches a kernel
    session (see {!Counting.session}).  Answers and counters are identical
    to the sequential trie run in either case. *)
val run : ?par:Counting.par -> ?session:Counting.session -> t -> Io_stats.t -> Frequent.t

(** Results accumulated so far. *)
val result : t -> Frequent.t
