(** Direct level-2 counting — the array-based C2 kernel of classical
    Apriori implementations.

    A family whose candidates are all 2-sets does not need a trie: rank the
    items that occur in any candidate, and count {e every} pair of ranked
    items of each transaction blindly into a triangular array of cells.
    Increments into a flat [int array] are far cheaper than trie walks, and
    the candidate supports are read off the candidates' own cells at the
    end — cells that correspond to non-candidate pairs are simply ignored,
    so the result is byte-identical to the trie path.

    The cell array is the per-participant accumulator of a parallel pass:
    participants count into private cell arrays, which merge by element-wise
    addition. *)

open Cfq_itembase

type t

(** [shape cands] is the kernel layout when every candidate is a 2-set
    ([None] otherwise, or when [cands] is empty).  O(candidates). *)
val shape : Itemset.t array -> t option

(** [of_pairs cands] is [shape cands] without its candidates: the layout
    over their items, to read through {!view}.  It does not look up a
    candidate's cell. *)
val of_pairs : Itemset.t array -> t option

(** [union ts] is the layout over the ranked items of every layout of
    [ts], with no candidates of its own: read it through {!view}.  One
    cell array counted with it holds every pair of every [t]. *)
val union : t list -> t

(** [view t cands] is [t]'s layout reading the cells of [cands] instead
    of [t]'s own candidates: the same ranks and cells, so one cell array
    counted with [t] serves both.  Raises [Invalid_argument] unless every
    candidate is a 2-set of items ranked in [t]. *)
val view : t -> Itemset.t array -> t

(** [n_distinct ts] is the number of distinct cells the candidates of
    [ts], views of one layout, read: their distinct candidates,
    duplicates counted once. *)
val n_distinct : t list -> int

(** Number of triangular cells — the memory cost (in words) of one
    accumulator. *)
val n_cells : t -> int

(** Number of distinct ranked items. *)
val n_ranks : t -> int

(** A fresh all-zero accumulator. *)
val init_cells : t -> int array

(** Per-participant scratch (rank buffer); grows on demand. *)
type scratch

val scratch : unit -> scratch

(** [count_row t cells scratch items off len] increments the cells of
    every ranked pair of the row [items.(off) .. items.(off + len - 1)]
    (one transaction, strictly increasing). *)
val count_row : t -> int array -> scratch -> int array -> int -> int -> unit

(** [extract t cells] reads the candidate supports off the cells, in
    candidate order. *)
val extract : t -> int array -> int array
