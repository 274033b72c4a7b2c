(** The persistent transaction store: sealed segment + ingestion WAL +
    buffer pool, surfaced as a {!Cfq_txdb.Tx_db.t}.

    A store at [PATH] is two files: the sealed segment [PATH] (see
    {!Segment}) and the append-only log [PATH.wal] (see {!Wal}).
    {!open_} runs recovery first — the WAL's torn tail (an interrupted
    group commit) is truncated, its valid records are folded into a fresh
    segment (temp file + atomic rename + directory fsync), and the log is
    emptied — so the visible database is always a fully sealed,
    checksummed segment.  Recovery is idempotent: the WAL header carries
    the segment generation its records apply to, the fold bumps that
    generation durably {e before} the WAL is reset, and a WAL whose
    generation doesn't match the live segment is discarded as already
    applied — a crash at any point during recovery or {!seal} never
    duplicates a committed transaction.

    {!db} is the seam: a [Tx_db.t] whose rows are decoded on demand from
    4 KB pages fetched through the bounded {!Buffer_pool}, each page once
    per read into a reused per-domain scratch.  [Exec],
    [Counting.count_pass]'s chunked parallel scans, fault injection and
    [Tx_db.verify] all run unchanged against it, with identical answers,
    ccc counters and logical page charges as the in-memory backend; the
    pool's physical hit/miss/eviction counts accumulate in {!io}. *)

open Cfq_itembase
open Cfq_txdb

type t

type recovery = {
  replayed : int;  (** WAL records folded into the segment on open *)
  truncated_bytes : int;  (** torn tail bytes discarded *)
}

(** [create ?page_model path] makes a new empty store (overwriting any
    existing segment at [path]) and opens it. *)
val create :
  ?page_model:Page_model.t -> ?cache_pages:int -> ?group_commit:int -> string -> t

(** [open_ ?cache_pages path] recovers and opens an existing store.
    [cache_pages] bounds the buffer pool (default 1024 frames; clamped to
    at least 1).  Raises {!Segment.Bad_segment} on a damaged segment.

    [group_commit] batches WAL appends per fsync (default 64). *)
val open_ : ?cache_pages:int -> ?group_commit:int -> string -> t

(** [build ?page_model path txs] writes a sealed store in one shot
    (no WAL involved), without opening it. *)
val build : ?page_model:Page_model.t -> string -> Itemset.t array -> unit

(** [save_db path db] is {!build} over the transactions of an existing
    database (either backend); attribute tables are not stored — keep
    them next to the store (the CLI writes [PATH.info.csv]). *)
val save_db : ?page_model:Page_model.t -> string -> Tx_db.t -> unit

(** The current database view (sealed transactions only).  The handle is
    replaced by {!seal}: re-fetch it afterwards to see the new records.
    A handle obtained before a seal stays readable — it serves the
    pre-seal snapshot through the superseded segment, whose descriptors
    are kept open until {!close} — so in-flight scans survive a
    concurrent seal. *)
val db : t -> Tx_db.t

(** {2 Ingestion} *)

(** [append_tx t items] appends one transaction to the WAL (group-commit
    batched).  It becomes visible in {!db} after the next {!seal} (or
    recovery on reopen).

    Durability window: the record is buffered in user space until the
    group reaches [group_commit] records (then written + fsynced), so a
    crash can lose up to [group_commit - 1] of the most recent appends.
    Call {!flush} (or {!seal}, which flushes first) at every point where
    that bound matters. *)
val append_tx : t -> Itemset.t -> unit

(** Force the WAL's buffered group to disk (one fsync).  After [flush]
    returns, every append so far survives a crash. *)
val flush : t -> unit

(** Fold all WAL records into a next-generation segment (atomic rewrite,
    durable before the WAL is reset — crash-idempotent), and reopen the
    database view.  The superseded segment stays open for pre-seal {!db}
    handles until {!close}.  Returns the number of transactions sealed
    in. *)
val seal : t -> int

(** What the most recent successful {!seal} on this handle folded in:
    the new segment generation, the transaction count visible before the
    seal, and the number of records sealed — the delta occupies tids
    [[si_base_txs, si_base_txs + si_sealed_txs)] of the post-seal {!db}
    (the segment packer is prefix-stable, so pre-seal tids keep their
    pages).  [None] until a seal with records has happened on this
    handle; live cache maintenance ({!Cfq_live}) reads it to charge
    delta-only I/O. *)
type seal_info = {
  si_generation : int;
  si_base_txs : int;
  si_sealed_txs : int;
}

val last_seal : t -> seal_info option

val close : t -> unit

(** {2 Introspection} *)

val size : t -> int
val pages : t -> int
val page_model : t -> Page_model.t

(** Item-universe size recorded in the segment header. *)
val universe_size : t -> int

(** Generation of the live sealed segment (bumped by every seal and
    WAL-folding recovery).  A sharded manifest records it per shard to
    detect a crash between shard seals and the manifest rewrite. *)
val generation : t -> int

(** Physical I/O of this store's buffer pool: pool hits / misses /
    evictions ({!Io_stats.pool_hits} etc.; misses = real page reads). *)
val io : t -> Io_stats.t

(** What recovery did at {!open_} time. *)
val last_recovery : t -> recovery

(** WAL group-commit counters: (records appended, fsyncs issued). *)
val wal_counters : t -> int * int

val cache_pages : t -> int
val path : t -> string

(** {2 Page-level export / verify seam}

    Positioned reads on the segment's own descriptor, deliberately
    bypassing the buffer pool (cached frames would mask on-disk rot).
    This is the seam the shard scrubber ({!Cfq_shard.Scrub}) builds on.
    Not safe to interleave with {!seal} on the same handle — both
    reposition the segment fd; run scrubs between seals. *)

type page_fault_kind =
  | Bad_crc  (** raw page bytes fail their CRC-32 *)
  | Bad_checksum  (** decoded transactions fail the logical page checksum *)

type page_fault = { pf_page : int; pf_kind : page_fault_kind }

val page_fault_kind_name : page_fault_kind -> string

(** ["3/bad-crc, 7/bad-checksum"] — how every verify command prints
    faults. *)
val page_faults_to_string : page_fault list -> string

(** [verify_pages ?throttle t] re-reads every data page fresh from disk,
    once each, and checks (1) the raw CRC-32 against the segment footer
    and (2) the logical {!Cfq_txdb.Tx_db.Checksum} of each page's
    transactions, decoded as a scan decodes them.  Returns the faults
    found in page order ([[]] = clean).  [throttle ~page] runs before
    each page read — the scrubber's I/O throttle hook. *)
val verify_pages : ?throttle:(page:int -> unit) -> t -> page_fault list

(** All sealed transactions, decoded from one raw segment read (bypassing
    the pool) — what anti-entropy repair copies from a healthy replica. *)
val read_all : t -> Itemset.t array
