(** A replica group: one logical shard backed by R physical
    {!Cfq_store.Store} copies with byte-identical page geometry.

    Replica 0 lives at the shard's legacy path [PATH.shardK]; siblings at
    [PATH.shardK.rJ].  Reads route to the sticky preferred replica and
    fail over on typed faults ([Transient_io], [Corrupt_page],
    [Query_crash]) to a healthy sibling, resuming exactly after the last
    delivered transaction — answers, ccc and logical page charges are
    byte-identical to a single-replica store because every replica packs
    the same pages.  Writes mirror to every healthy replica under a
    majority quorum; a replica whose write fails goes {!Manifest.Stale}
    until {!repair} rebuilds it page-for-page from a healthy sibling. *)

open Cfq_itembase
open Cfq_txdb
module Store = Cfq_store.Store

type t

(** Raised (with the shard index) when no healthy replica remains to
    serve a read or act as a repair source. *)
exception No_healthy_replica of int

(** [shard_path base k] is shard [k]'s store path, [base.shardK]: the
    one place the name is made. *)
val shard_path : string -> int -> string

(** [replica_path base ~shard ~replica] — replica 0 is [base.shardK]
    (the pre-replication path, so version-1 stores open unchanged),
    replica [j >= 1] is [base.shardK.rJ]. *)
val replica_path : string -> shard:int -> replica:int -> string

(** [build ~replicas ~shard base slice] writes the slice once per replica
    and returns the created store paths (for cleanup on a failed sharded
    build). *)
val build :
  ?page_model:Page_model.t ->
  replicas:int ->
  shard:int ->
  string ->
  Itemset.t array ->
  string list

(** [open_group ~replicas ~shard base] opens all replicas and builds the
    failover view.  [health] seeds per-replica states from the manifest
    (default all healthy); an unopenable replica is quarantined instead of
    failing the shard, and a healthy replica lagging the most advanced one
    (generation or size — a crash between replica seals) is marked stale.
    Raises {!No_healthy_replica} if nothing is left to serve. *)
val open_group :
  ?cache_pages:int ->
  ?group_commit:int ->
  ?health:Manifest.health array ->
  replicas:int ->
  shard:int ->
  string ->
  t

val close : t -> unit

(** The failover view over this group — plug it into
    {!Cfq_txdb.Tx_db.of_shards} exactly like a single store's [db].
    Replaced by {!seal} and {!repair}; re-fetch afterwards. *)
val db : t -> Tx_db.t

(** The group's {!Io_stats} sink.  Pass it to [Tx_db.of_shards ~io] so
    distributed counting and failover accounting share one sink per
    shard; {!Io_stats.failovers} counts reads a sibling had to serve. *)
val io : t -> Io_stats.t

val replica_count : t -> int
val preferred : t -> int
val failovers : t -> int
val health : t -> replica:int -> Manifest.health
val set_health : t -> replica:int -> Manifest.health -> unit
val read_errors : t -> replica:int -> int
val write_errors : t -> replica:int -> int

(** The physical store behind replica [j] ([None] = unopenable). *)
val store : t -> replica:int -> Store.t option

(** First store in healthy preference order (the one whose geometry the
    failover view exposes).  Raises {!No_healthy_replica}. *)
val preferred_store : t -> Store.t

(** {2 Mirrored ingestion}

    Each operation applies to every healthy replica; a failing replica is
    marked stale and stops receiving writes.  If fewer than
    [quorum (replica_count t)] replicas accept, the first failure is
    re-raised. *)

val append_tx : t -> Itemset.t -> unit

val flush : t -> unit

(** Seal every healthy replica and rebuild the failover view (injectors
    are re-installed on the new handles).  Returns the number of
    transactions sealed in. *)
val seal : t -> int

(** {2 Fault injection (tests, chaos bench)} *)

(** Install an injector on one replica's current db handle; survives
    {!seal} and {!repair} (re-installed on the new handle). *)
val set_fault : t -> replica:int -> Fault.t option -> unit

(** Make mirrored writes to replica [j] fail with [Transient_io]. *)
val set_write_fault : t -> replica:int -> bool -> unit

(** {2 Scrub / repair} *)

(** [verify_replica t ~replica] runs {!Store.verify_pages} on that
    replica (an unopenable replica reports a single [Bad_crc] fault). *)
val verify_replica :
  ?throttle:(page:int -> unit) -> t -> replica:int -> Store.page_fault list

(** Anti-entropy: seal the most advanced healthy sibling, rewrite this
    replica's segment page-for-page from the sibling's transactions at the
    sibling's generation, reset its WAL, reopen and re-admit it healthy.
    [Error reason] quarantines the replica. *)
val repair : t -> replica:int -> (unit, string) result

(** The {!Manifest.shard_entry} this group currently warrants. *)
val entry : t -> Manifest.shard_entry
