(** The answer cache: whole answers of queries, kept packed across
    queries and seals.

    An entry holds an answer's pairs as a {!Packed.t}, whose two sides are
    every set valid for its query, paired or not.  It serves a request
    three ways: verbatim under the request's key ({!lookup}); after a seal,
    brought up to the new epoch by a delta join ({!promote}); and, when
    the request itself failed, as the sides of a covering answer filtered
    and joined again under the request ({!covering}, {!degrade}).

    The cache is an {!Lru.t} of entries owned by the caller, who guards it
    with a lock: the functions marked {e lock held} read or change it and
    take no lock themselves; the others touch no shared state. *)

open Cfq_mining
open Cfq_core

(** A cached answer: its key, the epoch its supports are exact for, its
    simplified query, its notes, and its packed pairs with their cache
    charge. *)
type entry

(** [make ~key ~epoch q ~notes packed] is the answer to the simplified
    query [q] under [key], exact at [epoch]. *)
val make : key:string -> epoch:int -> Query.t -> notes:string list -> Packed.weighed -> entry

val notes : entry -> string list
val packed : entry -> Packed.t

(** What the cache holds under a key. *)
type found =
  | Hit of entry  (** exact at the epoch asked for *)
  | Stale of entry  (** cached at an older epoch: {!promote} it *)
  | Miss

(** [lookup answers ~epoch key] (lock held) bumps the entry under [key]
    and classifies it against [epoch]. *)
val lookup : entry Lru.t -> epoch:int -> string -> found

(** [covering answers ctx ~epoch q] (lock held) is the most recently used
    entry at [epoch] that covers the simplified query [q], bumped: on both
    sides {!Side_cache.covers} holds, and [q] keeps every 2-var atom the
    entry's query enforced. *)
val covering : entry Lru.t -> Exec.ctx -> epoch:int -> Query.t -> entry option

(** [degrade ctx q e] is [q]'s answer from [e], which covers it: [e]'s
    packed sides filtered under [q] ({!Side_cache.filter_entries}) and
    joined under [q]'s 2-var atoms, with the constraint checks this
    paid.  It is exact: the covering rule makes [q]'s valid sets a subset
    of [e]'s, which its sides hold whole with their supports. *)
val degrade : Exec.ctx -> Query.t -> entry -> int * Packed.t

(** [promote ctx ~epoch q e ~valid_s ~valid_t] is the stale [e], the
    answer to [q] under [e]'s key, brought up to [epoch], whose valid sets
    are [valid_s] and [valid_t], by {!Packed.delta_join}. *)
val promote :
  Exec.ctx ->
  epoch:int ->
  Query.t ->
  entry ->
  valid_s:Frequent.entry array ->
  valid_t:Frequent.entry array ->
  entry

(** {2 Inserts and maintenance} (lock held) *)

(** [insert answers metrics ~current e] caches [e] under its key and
    prices it in [metrics], unless the current epoch [current] has moved
    past [e]'s: supports counted against a pre-seal snapshot must not
    enter the cache.  An entry over the whole budget is refused. *)
val insert : entry Lru.t -> Metrics.t -> current:int -> entry -> unit

(** [drop answers e] unbinds [e]'s key while it still holds [e]. *)
val drop : entry Lru.t -> entry -> unit

(** [rekey answers ctx] moves every entry to its key under [ctx].  Query
    keys carry the database id and absolute supports, so a re-ask after
    a seal would miss the old key.  An entry keeps its epoch and its
    recency.  Two entries landing on one key stand for the same
    thresholds; the more recent is kept.  Returns the entries carried
    and dropped. *)
val rekey : entry Lru.t -> Exec.ctx -> int * int
