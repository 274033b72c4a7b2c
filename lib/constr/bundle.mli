(** Compilation of a conjunction of 1-var constraints into the four
    execution classes of the CAP algorithm [15]:

    {ol
    {- succinct constraints become part of a single combined MGF (universe
       filter + required witness groups) and operate generate-only;}
    {- anti-monotone, non-succinct constraints ([sum ≤ c], cardinality,
       [S.A ⊉ V]) become candidate-generation checks;}
    {- constraints that are neither contribute any induced weaker succinct /
       anti-monotone forms ({!One_var.induce_weaker}) to classes 1–2 and are
       themselves deferred;}
    {- deferred originals are re-checked on the frequent sets at the end
       ([post_checks]).}} *)

open Cfq_itembase

type t = {
  info : Item_info.t;
  originals : One_var.t list;  (** the constraints as given *)
  mgf : Mgf.t;  (** combined MGF of the succinct parts (and induced ones) *)
  am_checks : One_var.t list;  (** anti-monotone checks for candidate generation *)
  post_checks : One_var.t list;  (** deferred: checked on frequent sets *)
}

(** [compile ~nonneg info cs] classifies and compiles the conjunction. *)
val compile : nonneg:bool -> Item_info.t -> One_var.t list -> t

(** No constraints: plain frequency mining. *)
val unconstrained : Item_info.t -> t

(** [add ~nonneg t cs] compiles additional constraints into [t] (used when
    the quasi-succinct reduction adds conditions after level 1). *)
val add : nonneg:bool -> t -> One_var.t list -> t

(** Universe filter on a single item. *)
val permits_item : t -> Item.t -> bool

(** All anti-monotone checks. *)
val am_ok : t -> Itemset.t -> bool

(** Required witness groups (empty for class-1-only bundles). *)
val requires : t -> Sel.t list

(** [eval_originals t s] evaluates the uncompiled conjunction — the
    reference semantics. *)
val eval_originals : t -> Itemset.t -> bool
