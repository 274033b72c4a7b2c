(** Candidate generation for the levelwise engines.

    Two generation modes are provided.  [apriori_gen] is the classical
    join-and-prune of the Apriori algorithm.  [extension_gen] is the
    generation used by CAP when a succinct-but-not-anti-monotone constraint
    is pushed: the pool then only contains sets with a required witness
    item, so candidates are produced by single-item extension and the prune
    step may only consult subsets that are themselves pool-eligible. *)

open Cfq_itembase

(** One level's candidates as generated.  Levels 1 and 2 have implicit
    forms that name the candidates without building an {!Itemset.t} for
    each: the direct kernels count them straight off the item histogram or
    a triangle over their items (see {!Counting}), and only the frequent
    ones are boxed.  The items of an implicit form are distinct and
    ascending.

    The witness forms say that every candidate holds one of [witnesses]
    (an MGF required group, Lemma 1), so a transaction holding no witness
    supports none of them and a counting pass may skip it
    ({!Counting.count_pass}). *)
type t =
  | Sets of Itemset.t array  (** explicit candidates, in any order *)
  | Witness_sets of { sets : Itemset.t array; witnesses : Item.t array }
      (** explicit candidates, in any order, each holding one of
          [witnesses] (ascending) *)
  | Items of Item.t array  (** the singleton of each item *)
  | Pairs of Item.t array  (** every 2-set of the items *)
  | Witness_pairs of { items : Item.t array; witnesses : Item.t array }
      (** every 2-set of [items] holding one of [witnesses] ([witnesses ⊆
          items], ascending) *)

(** Number of candidates, by arithmetic for the implicit forms: n(n−1)/2
    pairs of n items, w(n−w) + w(w−1)/2 with w witnesses. *)
val count : t -> int

(** [to_sets c] is [c] as explicit candidates: {!pairs_all} and
    {!pairs_with_witness} for the pair forms. *)
val to_sets : t -> Itemset.t array

(** The items of an implicit form; raises [Invalid_argument] on the
    explicit forms. *)
val items : t -> Item.t array

(** The witnesses of a witness form, one of which every candidate holds;
    [None] for the other forms. *)
val witnesses : t -> Item.t array option

(** [filter p c] is the candidates of [c] satisfying [p]: explicit, and
    a witness form still when [c] is one. *)
val filter : (Itemset.t -> bool) -> t -> t

(** [iter_pairs c f] calls [f i j] for each candidate [{items.(i),
    items.(j)}] ([i < j]) of a [Pairs] or [Witness_pairs] form over
    [items], row by row: the order of {!Itemset.compare}.  Raises
    [Invalid_argument] on the other forms. *)
val iter_pairs : t -> (int -> int -> unit) -> unit

(** [witness_mask c] marks the witnesses among the items of a [Pairs] or
    [Witness_pairs] form (every item of [Pairs]): the candidates are the
    pairs [i < j] with [i] or [j] marked.  Raises [Invalid_argument] on the
    other forms. *)
val witness_mask : t -> bool array

(** [pairs_all items] is every 2-set over [items]. *)
val pairs_all : Item.t array -> Itemset.t array

(** [pairs_with_witness ~witnesses ~items] is every 2-set of the distinct
    [items] containing at least one witness ([witnesses ⊆ items]), each
    once: every witness paired with every non-witness item, and every
    two witnesses paired once. *)
val pairs_with_witness : witnesses:Item.t array -> items:Item.t array -> Itemset.t array

(** [apriori_gen ~prev ~prev_mem] joins the size-[k] sets of [prev] (sorted
    internally) into size-[k+1] candidates and prunes any candidate with a
    size-[k] subset missing from [prev_mem]. *)
val apriori_gen : prev:Itemset.t array -> prev_mem:(Itemset.t -> bool) -> Itemset.t array

(** [extension_gen ~prev ~prev_mem ~ext_items ~is_witness] extends each
    pool set by one item of [ext_items] and prunes any candidate having a
    size-[k] subset that is pool-eligible (contains a witness) but absent
    from [prev_mem].

    Generation is canonical — every candidate is produced from exactly one
    parent, so no deduplication pass is needed: a parent with two or more
    witnesses extends only upward (items above its maximum), while a
    single-witness parent additionally accepts non-witness items above the
    maximum of its non-witness part (the witness itself may sit anywhere in
    the order). *)
val extension_gen :
  prev:Itemset.t array ->
  prev_mem:(Itemset.t -> bool) ->
  ext_items:Item.t array ->
  is_witness:(Item.t -> bool) ->
  Itemset.t array
