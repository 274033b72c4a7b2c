(** The shard-set manifest: one small checksummed file naming the shards
    of a partitioned store and pinning the composite view over them.

    {v
    magic "CFQMAN01" | version | partition kind | shard count |
    generation | composite n_txs / n_pages / universe | replica count |
    per shard: n_txs, n_pages, segment generation,
               per replica: generation, health state |
    composite per-page logical checksums (global tids) |
    CRC-32 over everything above
    v}

    Version 2 adds the replica count and the per-replica
    (generation, health) pairs; version-1 manifests are still read, as a
    single-replica store with every replica healthy.

    The per-shard generations pair with the shards' segment headers
    ({!Cfq_store.Segment}): a crash between shard seals and the manifest
    rewrite leaves a generation mismatch that {!Sharded.open_} detects and
    self-heals.  The composite checksums are the {!Cfq_txdb.Tx_db.Checksum}
    values over {e global} tids — exactly what the composite database needs,
    and not derivable from the shards' own (local-tid) checksums without a
    full scan, which is why the manifest persists them.

    Writes follow the segment discipline: temp file + atomic rename +
    parent directory fsync. *)

(** The one partitioning a manifest records: contiguous tid ranges
    (see {!Sharded}).  Its header word is always 0; any other value is
    rejected as an unknown partition kind. *)
type partition = Tid_range

val partition_name : partition -> string

(** Replica health as recorded in the manifest.  [Stale] — missed a
    quorum write (its data lags the shard); [Quarantined] — the scrubber
    found a page whose CRC or logical checksum fails.  Neither serves
    reads until anti-entropy repair rebuilds it from a healthy sibling
    and re-admits it [Healthy]. *)
type health = Healthy | Stale | Quarantined

val health_name : health -> string

type replica_entry = {
  r_generation : int;  (** that replica's segment generation *)
  r_health : health;
}

type shard_entry = {
  s_txs : int;
  s_pages : int;
  s_generation : int;  (** segment generation recorded at manifest write *)
  s_replicas : replica_entry array;  (** one per replica, replica 0 first *)
}

type t = {
  generation : int;  (** bumped on every manifest rewrite (seal, heal) *)
  partition : partition;
  universe : int;
  n_txs : int;  (** composite transaction count (sum over shards) *)
  n_pages : int;  (** composite page count (sum over shards) *)
  replicas : int;  (** physical replicas per shard (>= 1) *)
  shards : shard_entry array;
  checksums : int array;  (** one per composite page, over global tids *)
}

exception Bad_manifest of string

(** [write path m] atomically replaces the manifest at [path]; durable
    when it returns.  The temp file is removed on failure. *)
val write : string -> t -> unit

(** [read path] parses and validates the manifest (magic, version, CRC,
    internal sizes).  Raises {!Bad_manifest}. *)
val read : string -> t

(** [is_manifest path] probes the first bytes for the manifest magic —
    how the shell and CLI distinguish a sharded store from a plain
    segment at the same path. *)
val is_manifest : string -> bool
