(** Promote every cached frequent collection across a seal's delta.

    One shared FUP pass ({!Cfq_mining.Incremental.update_abs}): the
    resident twin is scanned once into tid sets, which delta-count every
    distinct set of every old collection (its union support can only move
    by the delta) and, mined once at the lowest slack threshold any
    collection needs, seed the candidates that were not in an old
    collection.  The distinct seeded candidates of all collections are
    counted against the old database in at most one scan per seal, and
    only when some seeding found any. *)

open Cfq_txdb
open Cfq_mining

(** One cached collection: its sets, the absolute threshold it is exact
    at, and its level cap. *)
type side = {
  frequent : Frequent.t;
  old_minsup : int;
  max_level : int option;
}

type stats = {
  recounted : int;  (** distinct candidates counted against the old database *)
  old_scans : int;  (** old-database scans the pass paid (0 or 1) *)
}

(** [promoted_minsup ~old_minsup ~base_txs ~union_txs] is the lowest
    integer threshold the promoted collection must be exact at so that it
    still answers {e every} relative support fraction the old entry could
    answer: [floor((old_minsup-1)·union/base) + 1], clamped to at least
    [old_minsup]. *)
val promoted_minsup : old_minsup:int -> base_txs:int -> union_txs:int -> int

(** [promote_all ?stats ~old_db ~delta io ~universe_size sides] is
    [(results, stats)] with one result per side, in order: [Ok (freq',
    minsup')] — the collection promoted to the union database, exact at
    the new absolute threshold [minsup' = promoted_minsup ...] for every
    set within the side's [max_level] satisfying whatever constraints it
    was mined under (extra unconstrained sets seeded from the delta are
    harmless, the service re-filters on serve) — or [Error e] when the
    side needed the shared old-database count and that scan raised [e].
    All scans are charged to [io]: one pass over the resident twin plus
    at most one [old_db] scan.  [?stats] receives the shared pass's
    per-level {!Cfq_mining.Level_stats} rows. *)
val promote_all :
  ?stats:Level_stats.t ->
  old_db:Tx_db.t ->
  delta:Delta.t ->
  Io_stats.t ->
  universe_size:int ->
  side list ->
  (Frequent.t * int, exn) result list * stats
