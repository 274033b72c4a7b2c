(** Service counters: cache effectiveness, queue pressure, latency, and the
    aggregated ccc cost (support counts + constraint checks) of everything
    served.

    The mutable accumulator is owned by {!Service} and mutated only under
    its lock; [snapshot] copies it out for lock-free reading. *)

type t

(** Per-shard breakdown of a sharded backend: admission/failure/breaker
    counters from the service's shard health plus the shard's logical scan
    traffic ({!Cfq_txdb.Tx_db.shard_io}). *)
type shard_row = {
  shard : int;
  shard_admissions : int;  (** queries admitted to mining (fan over all shards) *)
  shard_failures : int;  (** failures attributed to this shard's pages *)
  shard_trips : int;  (** this shard's breaker Closed→Open transitions *)
  shard_shed : int;  (** submissions shed while this shard's breaker was open *)
  shard_breaker : string;  (** "closed" / "open" / "half-open" *)
  shard_scans : int;
  shard_pages_read : int;
  shard_failovers : int;  (** reads a sibling replica had to serve *)
}

type snapshot = {
  queries : int;  (** queries answered (including errors) *)
  answer_hits : int;  (** served verbatim from the answer cache *)
  subsumption_hits : int;  (** sides served by filtering a cached collection *)
  sides_mined : int;  (** sides that had to run the mining engine *)
  sides_relaxed : int;
      (** of those, sides mined as a relaxation: a cached neighbour plus a
          mine of only the sets it misses *)
  answer_misses : int;  (** queries not found in the answer cache *)
  deadline_expired : int;
  rejected : int;  (** refused at admission (queue full) *)
  failures : int;
  support_counted : int;  (** aggregated over all served queries *)
  constraint_checks : int;
  scans : int;
  pages_read : int;
  total_latency : float;  (** wall-clock seconds, summed *)
  max_latency : float;
  queue_high_water : int;
  retries : int;  (** transient-fault retries performed *)
  degraded : int;  (** answers served from an entailed cached superset *)
  breaker_trips : int;  (** circuit breaker Closed→Open transitions *)
  shed : int;  (** submissions shed while the breaker was open *)
  inline_runs : int;  (** queue-full fallbacks run in the calling domain *)
  fault_transient : int;  (** [Transient_io] faults that reached the service *)
  fault_corrupt : int;  (** [Corrupt_page] faults that reached the service *)
  fault_crash : int;  (** [Query_crash] faults that reached the service *)
  kernel_trie_passes : int;  (** counting passes per kernel, over cold mines *)
  kernel_direct2_passes : int;
  kernel_vertical_passes : int;
      (** always 0: the vertical kernel is gone; kept for readers of the
          snapshot *)
  kernel_projected_scans : int;
      (** always 0: projections are gone; kept for readers of the
          snapshot *)
  live_epoch : int;  (** current epoch (0 = never sealed); a gauge *)
  seals : int;  (** seals whose maintenance this service ran *)
  sides_promoted : int;  (** side collections promoted across a seal *)
  sides_evicted : int;  (** side entries dropped by maintenance *)
  answers_promoted : int;
      (** lookups that found an answer cached at an older epoch and brought
          it up to date by a delta join *)
  answers_evicted : int;
      (** lookups that found an answer cached at an older epoch and dropped
          it: a side had no covering collection at the current epoch *)
  maint_recounted : int;
      (** distinct seeded candidates counted against the old database
          ([Incremental.outcome.counted_against_old], summed over seals) *)
  maint_old_scans : int;
      (** old-database scans maintenance paid, at most one per seal
          ([Incremental.outcome.old_scans], summed over seals) *)
  maint_scans : int;  (** all maintenance scans (delta twin + old db) *)
  maint_pages_read : int;  (** pages those scans charged *)
  cond_raw_bytes : int;
      (** raw-equivalent bytes of every cache insert (sides + answers),
          condensed or not *)
  cond_bytes : int;  (** bytes those inserts actually charged the cache *)
  cond_inserts : int;  (** inserts stored in condensed / packed form *)
  reconstructions : int;
      (** lazy rebuilds paid on lookup (side collection reconstructions +
          packed-answer unpacks) *)
  answer_entries : int;
  answer_bytes : int;
  side_entries : int;
  side_bytes : int;
  evictions : int;
  failovers : int;  (** replica failovers, summed over shards *)
  shards : shard_row list;  (** one row per shard; [[]] unsharded *)
}

val create : unit -> t

val record_query :
  t ->
  latency:float ->
  support_counted:int ->
  constraint_checks:int ->
  scans:int ->
  pages_read:int ->
  unit

val record_answer_hit : t -> unit
val record_answer_miss : t -> unit
val record_subsumption_hit : t -> unit
val record_side_mined : t -> unit
val record_side_relaxed : t -> unit
val record_deadline_expired : t -> unit
val record_rejected : t -> unit
val record_failure : t -> unit
val record_retry : t -> unit
val record_degraded : t -> unit
val record_breaker_trip : t -> unit
val record_shed : t -> unit
val record_inline_run : t -> unit

(** Classify a fault that reached the service (after retries, for
    transients).  [Deadline]/[Overload] are counted by their own
    dedicated counters, not here. *)
val record_fault : t -> Cfq_txdb.Cfq_error.t -> unit

(** One seal happened: bump the seal count and set the epoch gauge. *)
val record_seal : t -> epoch:int -> unit

(** Accumulate one maintenance pass's outcome (promoted / evicted side
    counts, FUP old-database cost, and the pass's I/O charges). *)
val record_maintenance :
  t ->
  sides_promoted:int ->
  sides_evicted:int ->
  recounted:int ->
  old_scans:int ->
  scans:int ->
  pages_read:int ->
  unit

(** A lookup promoted a stale cached answer to the current epoch. *)
val record_answer_promoted : t -> unit

(** A lookup dropped a stale cached answer it could not promote. *)
val record_answer_evicted : t -> unit

(** Accumulate one cold mine's per-kernel pass counts (see
    {!Cfq_mining.Counting.pass_counts}). *)
val record_kernel_passes : t -> trie:int -> direct2:int -> unit

(** One cache insert passed through the condensation layer: [raw] is the
    weight the raw form would have charged, [stored] what was charged,
    [condensed] whether the closed/packed form was used. *)
val record_condensed : t -> raw:int -> stored:int -> condensed:bool -> unit

(** A lookup had to rebuild a raw value from its condensed form. *)
val record_reconstruction : t -> unit

val observe_queue_depth : t -> int -> unit

(** [snapshot t ~answer_entries ... ~evictions] copies the counters,
    attaching the current cache occupancy figures and, for a sharded
    backend, the per-shard rows the service computed at snapshot time. *)
val snapshot :
  t ->
  ?shards:shard_row list ->
  ?failovers:int ->
  answer_entries:int ->
  answer_bytes:int ->
  side_entries:int ->
  side_bytes:int ->
  evictions:int ->
  unit ->
  snapshot

(** Render as a two-column report table. *)
val table : snapshot -> Cfq_report.Table.t
