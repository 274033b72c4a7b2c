(** Direct level-2 counting — the array-based C2 kernel of classical
    Apriori implementations.

    A family whose candidates are all 2-sets does not need a trie: rank the
    items of a layout, and count {e every} pair of ranked items of each
    transaction blindly into a triangular array of cells.  Increments into
    a flat [int array] are far cheaper than trie walks, and a candidate's
    support is read off its own cell ({!cell}) at the end — cells that
    correspond to non-candidates are simply ignored, so the result is
    byte-identical to the trie path.  A layout has no candidates of its
    own: one cell array serves every family whose items it ranks, whether
    the family lists its pairs or names them implicitly
    ({!Candidate.Pairs}, {!Candidate.Witness_pairs}).

    The cell array is the per-participant accumulator of a parallel pass:
    participants count into private cell arrays, which merge by element-wise
    addition. *)

open Cfq_itembase

type t

(** [of_items items] is the triangle over every item of [items] (any
    order, repeats allowed); ranks ascend with items.  With [witnesses] it
    is the {e rectangle} instead: one row of cells per ranked witness, so
    it holds only the pairs holding a witness, and {!count_row} skips a
    row holding none.  A witness form's family
    ({!Candidate.Witness_pairs}) needs no other pair. *)
val of_items : ?witnesses:Item.t array -> Item.t array list -> t

(** Whether the layout is the rectangle of some witnesses. *)
val restricted : t -> bool

(** [n_witness_cells ~items ~witnesses] is the cells of the rectangle
    over [items] (distinct) and [witnesses]: one row per witness among
    [items]. *)
val n_witness_cells : items:Item.t array -> witnesses:Item.t array -> int

(** [pair_items cands] is the ascending distinct items of [cands] when
    every candidate is a 2-set ([None] otherwise, or when [cands] is
    empty).  O(candidates). *)
val pair_items : Itemset.t array -> Item.t array option

(** [cell t a b] is the cell of the pair [{a, b}], [a < b].  Raises
    [Invalid_argument] unless both items are ranked in [t], and on a
    rectangle unless one of them is a witness. *)
val cell : t -> Item.t -> Item.t -> int

(** [ranks t items] is the rank of each item; ranks ascend with items.
    Raises [Invalid_argument] unless every item is ranked in [t]. *)
val ranks : t -> Item.t array -> int array

(** [rank_cell t ra rb] is the cell of the pair of ranks [ra < rb], which
    must be ranks of [t] (on a rectangle, one of them a witness's):
    unchecked, for walks over many cells. *)
val rank_cell : t -> int -> int -> int

(** [row_contiguous t ra]: the cells of the pairs [(ra, rb)], [rb > ra],
    are [row_base t ra + rb] — every row of the triangle, and the rows of
    the rectangle's witnesses. *)
val row_contiguous : t -> int -> bool

(** [row_base t ra] is the base of a contiguous row [ra] (see
    {!row_contiguous}).  Unchecked. *)
val row_base : t -> int -> int

(** Number of cells — the memory cost (in words) of one accumulator. *)
val n_cells : t -> int

(** A fresh all-zero accumulator. *)
val init_cells : t -> int array

(** Per-participant scratch (rank buffer); grows on demand. *)
type scratch

val scratch : unit -> scratch

(** [count_row t cells scratch items off len] increments the cells of
    every ranked pair of the row [items.(off) .. items.(off + len - 1)]
    (one transaction, strictly increasing) that the layout holds: every
    one in the triangle, those holding a witness in the rectangle. *)
val count_row : t -> int array -> scratch -> int array -> int -> int -> unit
