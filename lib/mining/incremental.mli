(** Incremental maintenance of frequent sets under insertions — the FUP
    idea (Cheung, Han, Ng & Wong, ICDE'96; reference [6] of the paper).

    Given the frequent sets of a database [DB] and a batch of new
    transactions [db], the frequent sets of [DB ∪ db] are computed by
    scanning mostly the {e increment}:

    {ul
    {- every old frequent set is updated with its count in [db] alone —
       winners and losers among them are decided without touching [DB];}
    {- a candidate that was {e not} frequent in [DB] can only become
       frequent overall if it is frequent inside [db] (proportionally), so
       new candidates are seeded from the increment and only they are
       counted against the old database.}} *)

open Cfq_txdb

(** One cached collection to promote, with the thresholds it was and must
    become exact at. *)
type side = {
  old_frequent : Frequent.t;
      (** every set of interest whose support in the old database is at
          least [old_minsup], with exact supports (a constraint-pruned
          collection is fine: sets it omits are either old-infrequent —
          reseeded from the delta — or fail constraints the caller
          re-checks anyway) *)
  old_minsup : int;
  union_minsup : int;  (** must be [>= old_minsup] *)
  max_level : int option;
      (** caps the cardinality of candidates seeded from the delta,
          matching a level-capped input collection *)
}

type 'a outcome = {
  frequent : 'a;  (** exact frequent sets of the union *)
  old_scans : int;  (** scans of the old database (the expensive ones) *)
  counted_against_old : int;
      (** distinct candidate sets counted against [DB] *)
}

(** [update_abs ?stats ~old_db ~delta io ~universe_size sides] promotes
    every side in one shared FUP pass — the integer-threshold core of the
    service's live cache maintenance.  The pass makes one charged scan
    of [delta] into tid sets; those count the deduplicated union of every
    side's old sets, and one Eclat over them at the lowest seeding
    threshold any side needs seeds every side's newcomers.  The
    deduplicated union of the newcomers is counted in at most one
    {!Counting.count_pass} over [old_db], on [session]'s kernel and
    spread by [par] as for {!Cap.step}; its counts are the trie's for
    every kernel and [par].  All scans are charged to [io].

    The result has one entry per side, in order: [Ok f] with [f] exact at
    that side's [union_minsup] over [old_db ∪ delta] for every set of the
    universe the side's input could answer — the same collection a
    one-side call returns — or [Error e] when the side needed the
    old-database count and that scan raised [e].  A side whose seeding
    found no newcomers is decided by the delta alone and never fails.
    Raises [Invalid_argument] if a side has [union_minsup < old_minsup].

    With [?stats], one {!Level_stats} row is recorded per level touched:
    [candidates]/[counted] are the distinct old sets delta-counted plus
    the distinct seeded newcomers of that level, [frequent] the distinct
    sets that won for at least one side, and the kernel tag is ["fup-old"]
    when the level paid the old-database count and ["fup-delta"] when the
    delta alone decided it. *)
val update_abs :
  ?par:Counting.par ->
  ?session:Counting.session ->
  ?stats:Level_stats.t ->
  old_db:Tx_db.t ->
  delta:Tx_db.t ->
  Io_stats.t ->
  universe_size:int ->
  side list ->
  (Frequent.t, exn) result list outcome

(** [promoted_minsup ~old_minsup ~base_txs ~union_txs] is the lowest
    integer threshold a collection exact at [old_minsup] over [base_txs]
    rows must be promoted to over [union_txs] rows so that it still
    answers {e every} relative support fraction the old one could answer:
    [floor((old_minsup-1)·union/base) + 1], clamped to at least
    [old_minsup]. *)
val promoted_minsup : old_minsup:int -> base_txs:int -> union_txs:int -> int

(** [update ~old_db ~old_frequent ~delta io ~minsup_frac ~universe_size]
    where [old_frequent] must be the exact frequent collection of [old_db]
    at relative threshold [minsup_frac].  The result is exact for
    [old_db ∪ delta] at the same relative threshold: {!update_abs} with
    one side, re-raising a failed old-database scan. *)
val update :
  old_db:Tx_db.t ->
  old_frequent:Frequent.t ->
  delta:Tx_db.t ->
  Io_stats.t ->
  minsup_frac:float ->
  universe_size:int ->
  Frequent.t outcome
