(** The one handle over every backend the service can sit on: the
    in-memory array, a plain {!Cfq_store.Store}, or a sharded/replicated
    {!Cfq_shard.Sharded} store.  {!open_} is the only place that decides
    which backend a path denotes.

    The source owns the append → flush → seal lifecycle and mints a
    monotone {e epoch} at each successful seal — the generation tag the
    service stamps on every cache entry ({!Cfq_service.Service}).  After a
    seal, {!db} is the new (larger) database and {!seal}'s returned
    {!Delta.t} pins down exactly the appended transactions, so a
    maintenance pass can promote cached collections by counting only the
    delta.

    The [Mem] variant rebuilds its database from the accumulated sets on
    seal (optionally through a custom [rebuild], e.g.
    [Sharded.mem_db ~shards] for a storeless sharded composite), so every
    backend goes through the same lifecycle; [test/test_backends.ml]
    checks all five against one in-memory twin. *)

open Cfq_itembase
open Cfq_txdb

type t

(** What to open.  [Disk] names a store file; [cache_pages] bounds each
    buffer pool (the store's default when [None]). *)
type spec =
  | Mem of Itemset.t array
  | Disk of { path : string; cache_pages : int option; shards : int; replicas : int }

(** [open_ spec] opens a backend.  For [Disk]: a manifest at [path] opens
    sharded as-is; otherwise [shards > 1 || replicas > 1] splits the plain
    segment once into a sharded twin at [path ^ ".sharded"] (reused by
    later opens); anything else opens the plain store.  Damaged or
    missing files, and [shards]/[replicas] below 1, are [Error]s. *)
val open_ : spec -> (t, string) result

(** [of_mem ?rebuild sets] — storeless source; [rebuild] constructs the
    database view from the full set array (default [Tx_db.create]). *)
val of_mem : ?rebuild:(Itemset.t array -> Tx_db.t) -> Itemset.t array -> t

val of_store : Cfq_store.Store.t -> t

(** Release the backend's files (no-op in memory). *)
val close : t -> unit

(** The current sealed database view.  Replaced by {!seal}; a handle
    fetched before a seal keeps serving the pre-seal snapshot (the store
    keeps superseded segments open), which is what lets maintenance count
    seeded candidates against the {e old} database. *)
val db : t -> Tx_db.t

(** Epoch of the current database: 0 at creation, +1 per successful seal. *)
val epoch : t -> int

(** Transactions appended through this handle since the last seal. *)
val pending : t -> int

val size : t -> int
val backend_name : t -> string

(** {2 Backend introspection} *)

(** The sharded store behind the source, if that is the backend. *)
val sharded : t -> Cfq_shard.Sharded.t option

(** The file opened: the plain segment or the manifest ([None] in memory). *)
val path : t -> string option

(** [located_at t p] — [p] is the file opened or the path the {!Disk}
    spec named (a plain segment whose sharded twin was opened). *)
val located_at : t -> string -> bool

(** [info_path path] is where the itemInfo table of the store at [path]
    lives: [path ^ ".info.csv"]. *)
val info_path : string -> string

(** The itemInfo table stored beside the source ({!info_path} of the
    opened file, else of the path the spec named), or a bare table over
    the item universe when there is none.  The table covers the data's
    universe and every item the CSV lists. *)
val item_info : t -> (Item_info.t, string) result

(** [save ?shards ?replicas path db info] writes [db] to a store at
    [path], sharded under a manifest when [shards] or [replicas] exceeds 1
    (both default to 1), and [info] to {!info_path}[ path], where
    {!open_} and {!item_info} find them.  I/O failures raise. *)
val save : ?shards:int -> ?replicas:int -> string -> Tx_db.t -> Item_info.t -> unit

(** [load fimi info] reads a FIMI file and, when given, an itemInfo CSV,
    sized as {!item_info} sizes a table: the data's universe and every
    item the CSV lists (a bare table without one).  Unreadable or
    malformed files are [Error]s. *)
val load : string -> string option -> (Tx_db.t * Item_info.t, string) result

(** One line: path, size, pages, pool or shard layout, and what recovery
    did on open. *)
val summary : t -> string

(** [set_fault t ?shard ?replica f] installs (or with [None] clears) a
    fault injector: on the whole database, on one shard's slice of every
    scan, or on one physical replica of that shard (reads fail over around
    it).  [Error] for an out-of-range shard or replica, a replica without
    a shard, or a shard pin on a backend that is not sharded. *)
val set_fault :
  t -> ?shard:int -> ?replica:int -> Fault.t option -> (unit, string) result

(** [fault_report ?shard ?replica f] is the line a front end prints after
    {!set_fault} installed [f]: ["fault injection on: transient-p=P
    corrupt-p=C spike-p=S seed=N"] read back from the injector's own
    config, or ["fault injection off"], then the pin, as in
    [" (shard K, replica J)"]. *)
val fault_report : ?shard:int -> ?replica:int -> Fault.t option -> string

(** [verify t] re-reads every page from disk: every replica of a sharded
    store ({!Cfq_shard.Scrub.health_report}, one row per replica), or
    every page of a plain one.  The flag is [true] when all are healthy;
    the text opens with ["VERIFICATION FAILED"] when not. *)
val verify : t -> bool * string

(** The backend's physical I/O, one line each: a plain store's
    ["buffer pool: H hits, M misses, E evictions (cache C of P pages)"];
    a sharded store's line per shard (scans, pages read, its pool), per
    replica health when replicated, and ["replica failovers: N"].  Empty
    in memory. *)
val io_lines : t -> string list

(** {2 Ingestion} *)

val append_tx : t -> Itemset.t -> unit
val flush : t -> unit

(** [seal t io] flushes and seals the pending appends.  [None] when
    nothing was pending; otherwise the new epoch's {!Delta.t}, whose
    extraction scan (delta pages only) is charged to [io]. *)
val seal : t -> Io_stats.t -> Delta.t option

(** [append_file t fimi] appends every transaction of a FIMI file
    through {!append_tx} and returns how many; seal them with {!seal} or a
    service's [seal_live].  An unreadable or malformed file is an [Error]
    and appends nothing. *)
val append_file : t -> string -> (int, string) result
