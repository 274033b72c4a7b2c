(** A partitioned transaction store: N {!Cfq_store.Store}s under one
    {!Manifest}, surfaced as a single sharded {!Cfq_txdb.Tx_db.t}
    composite over which [Counting.count_pass] runs count-distribution
    mining (each shard counts its slice, the coordinator sums).

    Layout on disk for a sharded store at [PATH]:
    [PATH] is the manifest; shard [k] is a complete ordinary store at
    [PATH.shard<k>] (segment + WAL), so every shard enjoys the store's own
    recovery, buffer pool and fault machinery unchanged.

    With [replicas = R > 1] each shard is a {!Replica} group: R physical
    stores with byte-identical page geometry (replica 0 at the legacy
    [PATH.shard<k>], siblings at [PATH.shard<k>.r<j>]).  Reads fail over
    between replicas on typed faults without changing answers, ccc or
    logical page charges; writes mirror under a majority quorum; the
    {!Scrub} pass verifies, quarantines and repairs replicas.

    {2 Partitioning}

    The batch splits into contiguous tid ranges whose boundaries sit on
    page boundaries of the {e global} greedy packing.  The packer
    restarts cleanly at a page boundary, so each shard's local packing
    reproduces exactly its slice of the global page geometry — the
    composite's pages, [page_of], checksums and logical I/O charges are
    byte-identical to the unsharded store over the same batch. *)

open Cfq_itembase
open Cfq_txdb

type t

(** [shard_path path k] is the store path of shard [k]. *)
val shard_path : string -> int -> string

(** {2 Building and opening} *)

(** [build ?page_model ?replicas ?on_shard_built ~shards path sets]
    writes the shard stores and then the manifest (atomic temp+rename
    each).  [on_shard_built k] runs after shard [k]'s store is durable —
    the deterministic fault-injection seam for crash tests.  On {e any}
    failure every shard file created so far (segment and WAL) is removed
    along with the manifest temp, so a failed build leaves no orphans. *)
val build :
  ?page_model:Page_model.t ->
  ?replicas:int ->
  ?on_shard_built:(int -> unit) ->
  shards:int ->
  string ->
  Itemset.t array ->
  unit

(** [build_from_segment ?replicas ~shards ~src path] partitions an
    existing plain store's segment at [src] into a sharded store at
    [path] (same page model). *)
val build_from_segment :
  ?replicas:int ->
  shards:int ->
  src:string ->
  string ->
  unit

(** [open_ ?cache_pages ?group_commit path] opens every shard (running
    each store's recovery) and attaches the composite.  [cache_pages]
    bounds {e each} shard's buffer pool.  If the manifest disagrees with
    the live shards — a crash between shard seals and the manifest
    rewrite, or recovery that folded WAL records — the manifest is
    rebuilt from the shards (one raw scan) and rewritten with a bumped
    generation before the composite is attached. *)
val open_ : ?cache_pages:int -> ?group_commit:int -> string -> t

val close : t -> unit

(** The composite database: global tids in shard order, sharded so
    [Counting.count_pass] distributes passes ({!Cfq_txdb.Tx_db.shards}
    is [Some _]).  Re-fetch after {!seal}. *)
val db : t -> Tx_db.t

(** The preferred replica store of each shard (single-replica stores:
    the shard store itself). *)
val stores : t -> Cfq_store.Store.t array

(** The replica group behind each shard. *)
val groups : t -> Replica.t array

val manifest : t -> Manifest.t

(** {2 Ingestion} *)

(** [append_tx t items] appends to the last shard's WAL, preserving
    global tid order.  Visible in {!db} after {!seal}. *)
val append_tx : t -> Itemset.t -> unit

(** Flush every shard's WAL group to disk. *)
val flush : t -> unit

(** Seal every shard with pending WAL records, rewrite the manifest
    (bumped generation, recomputed composite checksums) and re-attach the
    composite.  Returns the total transactions sealed in. *)
val seal : t -> int

(** What the most recent successful {!seal} on this handle folded in.
    [si_delta_ranges] are the newly sealed transactions as inclusive
    [(lo, hi)] tid ranges of the {e post-seal composite} {!db} — one
    trailing range, since appends go to the last shard.  Live cache
    maintenance ({!Cfq_live}) reads these to scan only the delta. *)
type seal_info = {
  si_generation : int;  (** manifest generation after the seal *)
  si_base_txs : int;  (** composite size before the seal *)
  si_sealed_txs : int;
  si_delta_ranges : (int * int) list;
}

val last_seal : t -> seal_info option

(** {2 Introspection and fault injection} *)

val path : t -> string
val shard_count : t -> int

(** Physical replicas per shard, from the manifest ([1] = unreplicated). *)
val replicas : t -> int

val size : t -> int
val pages : t -> int
val universe_size : t -> int

(** Total replica failovers across all shards since open. *)
val failovers : t -> int

(** Rewrite the manifest from the live groups (bumped generation,
    recomputed composite checksums) and re-attach the composite — how
    {!Scrub} persists health transitions.  {!seal} calls this when it
    sealed anything. *)
val sync_manifest : t -> unit

(** [set_shard_fault t ~shard f] installs (or clears) a fault injector on
    one shard's database: that shard's slice of every composite scan runs
    the full page/checksum walk against it, and raised error pages are in
    composite coordinates so the service can attribute them. *)
val set_shard_fault : t -> shard:int -> Fault.t option -> unit

(** [set_replica_fault t ~shard ~replica f] installs (or clears) an
    injector on one {e replica}'s database.  Unlike a shard fault, the
    failover layer sits above it: reads that hit the fault retry on a
    healthy sibling invisibly, so answers stay exact while
    {!failovers} counts the rescues. *)
val set_replica_fault : t -> shard:int -> replica:int -> Fault.t option -> unit

(** Make mirrored writes to one replica fail (marking it stale). *)
val set_replica_write_fault : t -> shard:int -> replica:int -> bool -> unit

(** [remove_files path] best-effort removes a sharded store's files
    (manifest, temp, shard segments and WALs) — test cleanup. *)
val remove_files : string -> unit

(** {2 In-memory sharded composites}

    [mem_db ?page_model ~shards sets] is the storeless twin: the same
    partitioning over in-memory [Tx_db.create] shards, composed with
    {!Cfq_txdb.Tx_db.of_shards}.  The composite is I/O-identical to
    [Tx_db.create sets]. *)
val mem_db :
  ?page_model:Page_model.t ->
  shards:int ->
  Itemset.t array ->
  Tx_db.t
