(** Constrained frequent set queries.

    A CFQ is a query [{(S, T) | C}] over two set variables: its answer is
    the set of pairs of frequent itemsets [(S0, T0)] jointly satisfying the
    constraint conjunction [C] (Section 1 of the paper).  [C] splits into
    per-variable frequency thresholds, 1-var constraints on each side, and
    2-var constraints binding the sides together. *)

open Cfq_constr

type t = {
  s_minsup : float;  (** relative support threshold for [S], in [0, 1] *)
  t_minsup : float;
  s_constraints : One_var.t list;
  t_constraints : One_var.t list;
  two_var : Two_var.t list;
  max_level : int option;  (** optional lattice depth cap *)
}

(** [make ()] with defaults: both thresholds 1%, no constraints. *)
val make :
  ?s_minsup:float ->
  ?t_minsup:float ->
  ?s_constraints:One_var.t list ->
  ?t_constraints:One_var.t list ->
  ?two_var:Two_var.t list ->
  ?max_level:int ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
