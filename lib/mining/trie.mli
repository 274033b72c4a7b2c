(** Candidate prefix trie for support counting.

    The counting analogue of the Apriori hash tree: all candidates of one
    level are inserted into a trie keyed by their (sorted) items, and each
    transaction is walked through the trie once, incrementing the counter of
    every candidate it contains.

    The frozen structure is a flat struct-of-arrays layout (int-indexed
    nodes in BFS order, children contiguous), so counting walks are
    cache-friendly, allocation-free, and the trie can be shared immutably
    across domains — each domain counting into its own array via
    {!count_row}.  [Counting.count_pass] is the one-scan entry point;
    its [Trie] kernel counts every family with one of these. *)

open Cfq_itembase

type t

(** [build cands] indexes the candidates (all of the same size, though this
    is not required). *)
val build : Itemset.t array -> t

val n_candidates : t -> int

(** [count_row t counts items off len] registers one transaction, given as
    the strictly increasing row [items.(off) .. items.(off + len - 1)], by
    incrementing [counts.(i)] for every candidate [i] it contains; [counts]
    is aligned with the candidate array passed to {!build}.  The trie
    itself is never mutated, so one trie can serve several threads, each
    with its own output array.  The walk allocates nothing, and each node
    stops at the first item past its keys. *)
val count_row : t -> int array -> Item.t array -> int -> int -> unit
