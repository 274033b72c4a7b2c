(** Computation plans produced by the CFQ query optimizer (Figure 7). *)

open Cfq_constr

type strategy =
  | Apriori_plus  (** mine all frequent sets, then filter (the baseline) *)
  | Cap_one_var  (** push 1-var constraints only (the CAP algorithm of [15]) *)
  | Optimized  (** 1-var + quasi-succinct reduction + Jmax pruning, dovetailed *)
  | Sequential_t_first
      (** the "global maximum M" alternative of Section 5.2: compute the
          whole [T] lattice first, then prune the [S] lattice against exact
          bounds instead of the [V^k] series — better pruning, no scan
          sharing *)
  | Full_materialize
      (** the FM counterexample of Section 6.2: constraint-check the whole
          powerset first, count only valid sets — minimal counting, absurd
          checking; small universes only *)

(** How a 2-var constraint is handled by the [Optimized] strategy. *)
type two_var_handling = {
  constr : Two_var.t;
  quasi_succinct : bool;  (** reduced tightly (Section 4) vs via sound bounds *)
  induced : Two_var.t option;  (** Figure 4 weaker constraint, when one exists *)
  jmax_on_s : bool;  (** iterative [V^k] filter installed on the S lattice *)
  jmax_on_t : bool;
}

type t = {
  strategy : strategy;
  handlings : two_var_handling list;
  ccc_optimal : bool;
      (** the optimizer certifies ccc-optimality (Theorem 4 / Corollary 2):
          all 1-var constraints succinct and all 2-var quasi-succinct *)
  notes : string list;
}

val strategy_name : strategy -> string

(** Every strategy under the name [cfq run --strategy] and the shell's
    [set strategy] accept. *)
val all_strategies : (string * strategy) list
val pp : Format.formatter -> t -> unit
