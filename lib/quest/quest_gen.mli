(** IBM Quest / Agrawal–Srikant synthetic transaction generator.

    Re-implementation of the generator of "Fast Algorithms for Mining
    Association Rules" (VLDB'94), which the paper used (via the IBM Almaden
    program) to produce its experimental databases: a table of potentially
    large itemsets with exponentially distributed weights is built first, and
    transactions are then assembled from (possibly corrupted) patterns drawn
    from that table. *)

open Cfq_itembase
open Cfq_txdb

type params = {
  n_items : int;  (** N, size of the item universe (paper: 1000) *)
  n_transactions : int;  (** |D| (paper: 100,000) *)
  avg_tx_len : float;  (** |T|, mean transaction size (Poisson) *)
  avg_pattern_len : float;  (** |I|, mean potentially-large itemset size *)
  n_patterns : int;  (** |L|, number of potentially large itemsets *)
  correlation : float;  (** fraction of a pattern inherited from the previous one *)
  corruption_mean : float;  (** mean per-pattern corruption level *)
  corruption_stddev : float;
}

(** Paper-scale defaults: 100k transactions over 1000 items,
    [|T|=10], [|I|=4], [|L|=2000]. *)
val default_params : params

(** [scaled n] is [default_params] with [n_transactions = n] and [n_patterns]
    scaled proportionally (minimum 50), for fast test/bench runs. *)
val scaled : int -> params

(** [patterns rng p] builds the potentially-large-itemset table:
    [(itemset, cumulative_weight, corruption)] rows. *)
val patterns : Splitmix.t -> params -> (Itemset.t * float) array

(** [generate rng p] produces the transaction database. *)
val generate : Splitmix.t -> params -> Tx_db.t

(** [generate_itemsets rng p] is the raw itemset array behind {!generate}. *)
val generate_itemsets : Splitmix.t -> params -> Itemset.t array

(** [market ~seed ~n_tx ~n_items ~n_types] is the synthetic market of
    [cfq gen], of the other CLI commands without [--data] and of the
    shell's [gen]: {!generate} at [scaled n_tx] over [n_items] items, then
    per item a uniform Price in [[0, 1000]] and one of [n_types] Types,
    all drawn from one stream seeded by [seed]. *)
val market : seed:int -> n_tx:int -> n_items:int -> n_types:int -> Tx_db.t * Item_info.t
