(** A cached answer's pairs, packed.

    The pair list of an answer is a near cross-product of its two sides, so
    the cache stores the two joined sides (every valid set, paired or not)
    plus two indices per pair, and rebuilds the list on lookup.  A
    {!packer} takes the pairs as {!Cfq_core.Pairs.form} emits them, in
    runs, buffered in chunks small enough for the minor heap; it counts
    each set's pairs as it goes, so pricing the result walks the sets, not
    the pairs.

    The byte model (doc/CONDENSED.md): an entry weighs
    {!Cfq_mining.Condensed.entry_weight}; a raw answer 256 + 16 per pair
    plus both entries of every pair; a packed one 256 + the distinct
    entries of its pairs + two 8-byte indices per pair. *)

open Cfq_itembase
open Cfq_constr
open Cfq_mining

type t = {
  pk_s : Frequent.entry array;
  pk_t : Frequent.entry array;
  pk_idx : int array;  (** pair [k] is [(pk_s.(pk_idx.(2k)), pk_t.(pk_idx.(2k+1)))] *)
}

(** Packed pairs with the cache charge of their raw pair list and of their
    packed form. *)
type weighed = {
  pk : t;
  raw_weight : int;
  packed_weight : int;
}

type packer

(** [packer valid_s valid_t] packs pairs of indices into the two sides. *)
val packer : Frequent.entry array -> Frequent.entry array -> packer

(** [add_run p i ts lo hi] packs the pairs [(i, ts.(r))], [lo <= r < hi]:
    a {!Cfq_core.Pairs.form} run callback. *)
val add_run : packer -> int -> int array -> int -> int -> unit

(** [add_pair p i j] packs one pair. *)
val add_pair : packer -> int -> int -> unit

(** [weights p] is the raw and the packed weight of the pairs packed so
    far, from each set's pair count: O(|S| + |T|). *)
val weights : packer -> int * int

(** The packed pairs in the order they were added, weighed.  The packed
    sides are the packer's sides whole: a later delta join reads from them
    which sets were valid. *)
val finish : packer -> weighed

(** [join ~s_info ~t_info ~valid_s ~valid_t ~two_var] forms the pairs and
    packs them as the join emits them. *)
val join :
  s_info:Item_info.t ->
  t_info:Item_info.t ->
  valid_s:Frequent.entry array ->
  valid_t:Frequent.entry array ->
  two_var:Two_var.t list ->
  Cfq_core.Pairs.stats * weighed

(** [delta_join ~s_info ~t_info ~two_var old ~valid_s ~valid_t] is the
    answer [old] brought up to a new epoch whose valid sets are [valid_s]
    and [valid_t]: FUP's argument (Cheung et al., reference [6] of the
    paper) applied to an answer instead of support counts.  Figure 1's
    2-var constraints read item attributes and never supports, so a pair
    stays a pair exactly while both of its sides stay valid.  The result
    is the old pairs whose two sets are still valid, re-supported, plus a
    join of the newcomers only. *)
val delta_join :
  s_info:Item_info.t ->
  t_info:Item_info.t ->
  two_var:Two_var.t list ->
  t ->
  valid_s:Frequent.entry array ->
  valid_t:Frequent.entry array ->
  weighed

val n_pairs : t -> int

(** The pairs a packed answer stands for, in packing order. *)
val pairs : t -> (Frequent.entry * Frequent.entry) list
