(** The side cache: frequent collections of query sides, kept across
    queries, and the rule that decides which of them serves a request.

    A {e side} is one variable of a CFQ with its threshold, depth cap and
    1-var constraints.  A cached collection serves a request when the
    request entails it ({!covers}: the reuse rule of Goethals & Van den
    Bussche, {e Interactive Constrained Association Rule Mining}).  Failing
    that, a cached {e neighbour} that differs by one bound the request
    widens ({!Entail.widening}) serves it with a mine of only what it
    misses (a relaxation); otherwise the side is mined cold.  {!plan}
    names which.

    The cache is an {!Lru.t} of entries owned by the caller, who guards it
    with a lock: the functions marked {e lock held} read or change it and
    take no lock themselves; the others touch no shared state. *)

open Cfq_itembase
open Cfq_constr
open Cfq_mining
open Cfq_core

(** What one side of a query asks for. *)
type spec = {
  info : Item_info.t;
  minsup : int;  (** absolute support *)
  max_level : int option;
  constraints : One_var.t list;  (** normalised 1-var conjunction *)
}

(** [side ctx q `S] is the spec of [q]'s S side against [ctx]'s database
    and tables; [`T] likewise. *)
val side : Exec.ctx -> Query.t -> [ `S | `T ] -> spec

(** [covers ~cached ~requested]: a collection exact for [cached] holds
    every set valid for [requested], with its support.  The same attribute
    table, a threshold no higher, a depth cap no lower, and [requested]
    entails every atom of [cached] ({!Entail.subsumes}).  This is the one
    covering rule: side lookups apply it, and {!Answer_cache} applies it
    to both sides of an answer. *)
val covers : cached:spec -> requested:spec -> bool

(** [filter_valid spec freq checks] is the sets of [freq] valid for
    [spec] (threshold, depth cap and constraints), in [freq]'s order,
    counting every 1-var evaluation in [checks].  A covering collection
    may hold more than the request: lower threshold, weaker constraints. *)
val filter_valid : spec -> Frequent.t -> int ref -> Frequent.entry array

(** [filter_entries spec entries checks] is {!filter_valid} over an entry
    array: a cached answer's packed side. *)
val filter_entries : spec -> Frequent.entry array -> int ref -> Frequent.entry array

(** {2 Entries} *)

(** A cached collection: its spec, the epoch its supports are exact for,
    the collection in the cache's storage form, and its cache charge. *)
type entry

(** [fresh ~epoch spec cond] is a newly mined side's entry. *)
val fresh : epoch:int -> spec -> Condensed.t -> entry

(** [promoted e ~epoch ~minsup cond] is [e] carried to [epoch] by a
    seal's maintenance: exact at the absolute threshold [minsup]. *)
val promoted : entry -> epoch:int -> minsup:int -> Condensed.t -> entry

val spec : entry -> spec
val condensed : entry -> Condensed.t

(** {2 Lookup and plan} *)

(** What the cache holds for a spec: the covering entry with the fewest
    sets, or failing one, every neighbour with the atom the request
    widens. *)
type found =
  | Covering of entry
  | Neighbours of (entry * One_var.t) list

(** [lookup sides ~epoch spec] folds once over [sides] (lock held), at
    [epoch] only: side keys carry no database, so a post-seal lookup
    must not see pre-seal supports.  A covering entry is bumped. *)
val lookup : entry Lru.t -> epoch:int -> spec -> found

(** How a side is derived. *)
type plan =
  | Covered of entry  (** filtered from a covering entry *)
  | Relaxed of entry * One_var.t
      (** the neighbour's sets that satisfy the atom, plus a mine under
          {!relaxation} *)
  | Cold  (** mined *)

(** [plan ~nonneg spec found] picks among the neighbours the one of
    narrowest witness band: the fewest items that [spec] permits and that
    hold a witness of the atom's negation; ties go to the fewest sets.
    It compiles constraint bundles, so call it without the lock. *)
val plan : nonneg:bool -> spec -> found -> plan

(** [bump sides e] marks [e] recently used (lock held). *)
val bump : entry Lru.t -> entry -> unit

(** {2 Relaxation}

    A neighbour was mined under [spec]'s constraints but for one bound
    [atom] that [spec] widens.  Every valid set satisfies [atom], and is
    then in the neighbour with its support at this epoch, or it holds a
    witness of the atom's negation, and is then found by CAP under [spec]
    and the negation (Lemma 1), whose witness group restricts every
    counting pass above level 1 to the rows holding a witness. *)

(** [relaxation spec atom] is the spec the relaxation mines: [spec] and
    the negation of [atom]. *)
val relaxation : spec -> One_var.t -> spec

(** [merge_relaxation spec atom ~relax ~neighbour ~mined checks] is
    [spec]'s collection: the sets of [neighbour] valid for [spec] and
    [atom], and those of [mined] valid for [relax], the {!relaxation} of
    [spec] and [atom] that mined them, level by level in
    {!Itemset.compare} order.  The two parts are disjoint: the mine's
    sets are kept only where they hold a witness, so its level-1
    singletons without one, which the neighbour holds too, are not
    counted twice.  [checks] counts every 1-var evaluation. *)
val merge_relaxation :
  spec ->
  One_var.t ->
  relax:spec ->
  neighbour:Frequent.t ->
  mined:Frequent.t ->
  int ref ->
  Frequent.t

(** {2 Inserts and maintenance} (lock held) *)

(** [insert sides e] caches [e] under its side key, evicting by recency;
    an entry over the whole budget is refused. *)
val insert : entry Lru.t -> entry -> unit

(** [stale sides ~epoch] is every entry older than [epoch], least
    recently used first. *)
val stale : entry Lru.t -> epoch:int -> entry list

(** [promote sides ~stale e'] caches [e'], the promotion of [stale], and
    drops [stale]'s binding while it still holds a stale entry (another
    promotion may have landed on that key).  False when the budget
    refused [e']. *)
val promote : entry Lru.t -> stale:entry -> entry -> bool

(** [purge sides ~epoch] drops every entry older than [epoch]. *)
val purge : entry Lru.t -> epoch:int -> unit
