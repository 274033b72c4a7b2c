(** Classification of 2-var constraints (Figure 1 of the paper).

    Anti-monotonicity (Definition 4) and quasi-succinctness (Definition 5)
    for the constraint family of {!Two_var}.  The headline results: among
    domain constraints only [S.A ∩ T.B = ∅] is anti-monotone, among the
    min/max aggregate comparisons only [max(S.A) ≤ min(T.B)] (and its mirror
    [min(S.A) ≥ max(T.B)]) — whereas {e all} domain constraints and {e all}
    min/max aggregate comparisons are quasi-succinct, and nothing involving
    [sum]/[avg] is. *)

(** [anti_monotone_s c]: if an [S]-set fails against every frequent
    singleton [T], every superset fails against every frequent [T]
    (Definition 4 w.r.t. S). *)
val anti_monotone_s : Two_var.t -> bool


(** Anti-monotone w.r.t. both variables — the Figure 1 column. *)
val anti_monotone : Two_var.t -> bool

(** Quasi-succinct (Definition 5): reducible to two succinct, sound and
    tight 1-var pruning conditions. *)
val quasi_succinct : Two_var.t -> bool
