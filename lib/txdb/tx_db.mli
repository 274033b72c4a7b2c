(** The transaction database [trans(TID, Itemset)].

    An immutable store of transactions with a {!Page_model} attached for
    I/O cost accounting.  Scans go through {!scan_rows} (or its
    transaction view {!iter_scan}) so that every pass over the data is
    charged to the given {!Io_stats}.  Every backend is read as rows: one
    transaction is a slice [items.(off) .. items.(off + len - 1)] of an
    array the backend owns (see {!row}).

    Two backends share this one API: the resident in-memory array built by
    {!create}, and an external paged backend plugged in through
    {!of_backend} (the disk store [Cfq_store], which reads 4 KB pages
    through a bounded buffer pool).  Page geometry, per-page checksums,
    chunked scans and the fault machinery are common to both, so answers,
    ccc counters and injected fault sequences are identical across
    backends. *)

open Cfq_itembase

type t

(** [create ?page_model txs] stores the given itemsets as transactions with
    TIDs [0, 1, ...]. *)
val create : ?page_model:Page_model.t -> Itemset.t array -> t

(** The logical per-page checksum: a rolling hash over the (tid, items) of
    the transactions resident on the page, starting from [seed].  An
    external backend persists exactly these values so that the fault
    machinery (tamper detection, {!verify}) behaves identically on either
    backend.  [add_row h tid items off len] adds the transaction [tid]
    whose items are [items.(off) .. items.(off + len - 1)]. *)
module Checksum : sig
  val seed : int
  val add_row : int -> int -> int array -> int -> int -> int
end

(** A row callback: [f items off len] receives one transaction's items as
    [items.(off) .. items.(off + len - 1)], strictly increasing.  Rows
    arrive in tid order and carry no tid: the [k]-th row of a read that
    starts at [lo] is transaction [lo + k].  [items] belongs to the
    backend, which may overwrite it once [f] returns, so [f] must neither
    keep nor mutate it. *)
type row = int array -> int -> int -> unit

(** [of_backend ~pages ~page_of ~checksums ~avg_tx_len ~rows ~get ()] is a
    database whose tuples live in an external paged store.  [page_of] maps
    each transaction index to its (first) page under the same packing as
    {!Page_model.assign}; [checksums] holds one {!Checksum} value per page;
    [rows ~lo ~hi f] must deliver the rows of transactions [lo..hi]
    (inclusive, in order) and be safe to call concurrently from several
    domains on disjoint ranges; [get] is a point read.  The backend is
    responsible for its own physical integrity (e.g. CRCs on raw pages)
    and may raise [Cfq_error.Error (Corrupt_page _)] from [rows]/[get]. *)
val of_backend :
  ?page_model:Page_model.t ->
  pages:int ->
  page_of:int array ->
  checksums:int array ->
  avg_tx_len:float ->
  rows:(lo:int -> hi:int -> row -> unit) ->
  get:(int -> Transaction.t) ->
  unit ->
  t

(** A process-unique id, stamped by every constructor ({!create},
    {!of_backend}, {!of_shards}): distinct databases never share one, and
    holding an id keeps nothing alive. *)
val id : t -> int

(** {2 Sharded composites}

    [of_shards subs] is one logical database spanning the given shards in
    tid order: global tids are the concatenation of the shards' local tids
    and global pages the concatenation of their pages.  Scans and point
    reads route to the owning shard; rows carry no tid, so a scan hands a
    shard's rows through as they are, and a point read re-tids its one
    transaction.  A shard with its own fault injector validates its slice of every
    composite scan (same page/checksum walk as a local scan) and raised
    error pages are translated to composite coordinates, so callers can
    attribute a failure to a shard with {!shard_of_page}.

    [checksums] are the composite's per-page checksums over {e global}
    tids; when omitted they are recomputed with one raw walk (shard-local
    checksums cover local tids and cannot be reused).  Install faults
    either on the composite or on individual shards — combining both makes
    the injectors draw independently, which is rarely what a test wants. *)

(** [io] supplies the composite's per-shard {!Io_stats} sinks instead of
    fresh ones — how a replicated store shares one sink per shard between
    distributed counting and its own failover accounting. *)
val of_shards :
  ?page_model:Page_model.t ->
  ?checksums:int array ->
  ?io:Io_stats.t array ->
  t array ->
  t

(** The sub-databases of a composite, in tid order ([None] otherwise). *)
val shards : t -> t array option

(** One {!Io_stats} sink per shard of a composite (distributed counting
    charges each shard's local I/O here); [[||]] for ordinary databases. *)
val shard_io : t -> Io_stats.t array

(** [shard_of_page t page] is the shard owning composite page [page].
    Raises [Invalid_argument] on an ordinary database. *)
val shard_of_page : t -> int -> int

(** First composite page of shard [k].  Raises on ordinary DBs. *)
val shard_page_base : t -> int -> int

val size : t -> int

(** Number of pages a full sequential scan touches. *)
val pages : t -> int

val page_model : t -> Page_model.t

(** [get t tid] is transaction [tid].  With faults installed, may raise
    [Cfq_error.Error]. *)
val get : t -> int -> Transaction.t

(** [scan_rows t stats f] runs [f] over the row of every transaction and
    charges one full scan to [stats].  With faults installed, delivery is
    page by page: each page is checked against the injector and its
    stored checksum before any of its rows reach [f] (the page is read
    once, its rows buffered while they are checksummed), and
    [Cfq_error.Error] is raised on an injected transient error, a checksum
    mismatch (corrupt page), or an injected crash. *)
val scan_rows : t -> Io_stats.t -> row -> unit

(** [iter_scan] is {!scan_rows} seen as transactions: same charge, same
    fault walk, and each row handed out as a {!Transaction.t} the caller
    may keep (a copy of the row on an external backend). *)
val iter_scan : t -> Io_stats.t -> (Transaction.t -> unit) -> unit

(** {2 Chunked scans}

    A chunked scan decomposes one logical pass into page-aligned ranges so
    several domains can consume disjoint chunks of the same scan.  The
    protocol is: {!begin_scan} once (it charges exactly the one scan that
    {!iter_scan} would and, with faults installed, performs the {e same}
    page/checksum walk in the same order, drawing the same injector
    decisions — so errors and fault statistics are independent of how many
    domains later consume the tuples), then {!iter_range} over the ranges
    from {!scan_chunks} in any order and from any domain. *)

(** [scan_chunks t ~max_chunks] partitions the scan order into at most
    [max_chunks] contiguous ranges [(lo, hi)] (inclusive transaction
    indices), each boundary snapped to a page boundary so no page is split
    across chunks.  The ranges are disjoint, in ascending order, and cover
    every transaction; the empty database yields [[]]. *)
val scan_chunks : t -> max_chunks:int -> (int * int) list

(** Number of page runs {!scan_chunks} partitions — the upper bound on
    useful chunks.  The run geometry is fixed for the life of a handle (a
    seal opens a new handle), so it is computed once and memoised; this
    accessor exposes it for shard sizing and [stats] reporting. *)
val chunk_runs : t -> int

(** [begin_scan t stats] charges one full scan to [stats] and, with faults
    installed, runs the complete page/checksum validation walk (raising
    like {!iter_scan} would) without delivering any tuples. *)
val begin_scan : t -> Io_stats.t -> unit

(** [rows t ~lo ~hi f] delivers the rows of transactions [lo..hi]
    (inclusive) to [f], raw: no I/O charge, no fault consultation —
    validation already happened in {!begin_scan}.  Safe to call
    concurrently from several domains on disjoint ranges. *)
val rows : t -> lo:int -> hi:int -> row -> unit

(** {!rows} seen as transactions, as {!iter_scan} is of {!scan_rows}. *)
val iter_range : t -> lo:int -> hi:int -> (Transaction.t -> unit) -> unit

(** [rows_checked t ~lo ~hi f] delivers the rows of transactions [lo..hi]
    with no I/O charge but {e with} fault validation when an injector is
    installed: the slice is walked page by page, each page consulted
    against the injector and checksum-verified before its rows reach [f]
    — exactly the walk a shard's slice of a composite scan runs.  This is
    the read a replica serves so the failover layer above it sees typed
    faults.  Checksum comparison is skipped for a partial page at either
    end of the range (a mid-page resume after a physical fault); complete
    pages are always verified. *)
val rows_checked : t -> lo:int -> hi:int -> row -> unit

(** {!rows_checked} seen as transactions. *)
val iter_range_checked : t -> lo:int -> hi:int -> (Transaction.t -> unit) -> unit

(** {2 Fault injection}

    The store carries per-page checksums computed at {!create}.  Installing
    a {!Fault.t} makes every scan and point read consult the injector;
    removing it ([set_faults t None]) restores the untouched fast path. *)

val set_faults : t -> Fault.t option -> unit
val faults : t -> Fault.t option

(** [set_backend_faults t probe] registers an external backend's own fault
    probe: a replicated store reports whether {e any} of its replicas
    carries an injector.  Callers that pin faulted scans to a
    deterministic order ([Counting.count_pass]) consult
    {!backend_faulted}, which is [faults t <> None || probe ()]. *)
val set_backend_faults : t -> (unit -> bool) -> unit

val backend_faulted : t -> bool

(** The page table ([tid -> first page]) and per-page checksum table of
    this database, {e shared, not copied} — read-only for callers.  A
    replica group uses them to build a failover view with identical page
    geometry. *)
val page_table : t -> int array

val checksum_table : t -> int array

(** Page holding transaction [tid] (its first page if it spans several). *)
val page_of_tx : t -> int -> int

(** [verify t] recomputes every page checksum against the stored data as
    the current fault layer reads it: [Error (Corrupt_page _)] for the
    first tampered page, [Ok ()] otherwise (always [Ok] with no faults
    installed).  Detected mismatches are counted on the injector. *)
val verify : t -> (unit, Cfq_error.t) result

(** [absolute_support t frac] converts a relative support threshold in
    [0, 1] to an absolute count (at least 1). *)
val absolute_support : t -> float -> int

(** [support t stats s] counts the transactions containing [s] (one scan). *)
val support : t -> Io_stats.t -> Itemset.t -> int

(** [item_frequencies t stats ~universe_size] is one scan computing, for
    every item, the number of transactions containing it. *)
val item_frequencies : t -> Io_stats.t -> universe_size:int -> int array

(** Average transaction length, for reporting. *)
val avg_tx_len : t -> float
