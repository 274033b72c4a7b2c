(** Support counting passes over the transaction database.

    [count_shared] is the dovetailing primitive (Section 5.2): several
    candidate families — typically one for the [S] lattice and one for the
    [T] lattice — are counted in a {e single} scan, so the I/O cost of the
    pass is shared between them.

    {2 Adaptive kernels}

    A pass does not have to walk a trie.  With a {!session} attached, each
    pass runs the plan's kernel — a fixed one, or under [Auto] one picked
    per family from a small cost model over the candidate geometry (see
    doc/COUNTING.md):

    {ul
    {- {e trie} — the general flat-array trie walk, any cardinality;}
    {- {e direct2} — {!Direct2}: a triangular count array over the ranks of
       the level-2 candidates' items, no trie;}
    {- {e vertical} — {!Tidset}: word-packed per-item tid bitvectors
       materialised by one charged scan, after which every deeper pass is a
       popcount intersection with {e zero} further I/O;}
    {- {e projection} — {!Projection}: an in-memory store shrunk to the
       live items and long-enough transactions, scanned (and charged) in
       place of the database.}}

    Contract: the counts, and therefore every frequent-set collection and
    answer downstream, are byte-identical to the trie path for every
    kernel, domain count and backend.  The ccc support-counted charge is
    per candidate and kernel-independent.  Logical page charges may
    legitimately differ — a projection scan charges its reduced footprint,
    a bitmap build charges one scan and bitmap-answered passes charge
    nothing — and only in those documented ways.  When faults are
    installed on the database, every pass is pinned to the trie kernel so
    the page/fault walk of the paper's I/O model is preserved exactly.
    [direct2] charges exactly the trie's scans, so under the default
    [Direct2] plan every page and ccc charge is the paper's.

    Every pass can run multi-core via {!par}: the coordinator charges and
    validates one logical scan, then page-aligned chunks fan out to a fixed
    set of domains (see {!Cfq_exec_pool.Pool.fan_out}), each counting into
    private per-family accumulators merged deterministically at the end
    (word-aligned row ranges for bitmap builds).  The answers, ccc
    counters, I/O charges, and fault behaviour are identical to the
    sequential pass for every [domains] value.

    {2 Count distribution}

    Over a sharded composite ({!Tx_db.of_shards} with two or more shards)
    each pass fans out per shard instead of per chunk: every shard counts
    the full candidate set against its own slice (with its own kernel
    choice, bitmaps and projections via a per-shard sub-session), and the
    coordinator sums the partial supports — supports are additive over a
    partition, so the totals are exact.  The caller is charged one logical
    composite scan per pass (skipped only when {e every} shard answers
    from covering bitmaps), each shard's local I/O lands in its
    {!Tx_db.shard_io} sink, and {!pass_counts} counts the distributed pass
    once, as on an unsharded database.  With faults installed on the composite or on any shard
    ({!Tx_db.faults}), passes are pinned to the trie kernel.  A
    replica-level injector behind a shard's failover view does not pin
    the kernel — failover hides it — but any backend fault
    ({!Tx_db.backend_faulted}) makes shards run in index order, so the
    injector draw sequence is deterministic; shard-local error pages are
    translated to composite coordinates. *)

open Cfq_itembase
open Cfq_txdb

(** How a counting pass parallelises.  [domains <= 1] is the sequential
    path, bit for bit.  With [domains > 1], up to [domains - 1] helpers are
    either fresh domains ([pool = None]) or borrowed idle workers of
    [pool] — the nested case where the query already runs on a service
    worker and must not oversubscribe the machine.

    [min_rows_per_domain] is the work floor of a parallel region: a pass
    over fewer than [min_rows_per_domain] rows (or candidates) per
    participant runs with fewer participants, down to sequential — fanning
    a few hundred rows out costs more than the rows.  Results are
    bit-identical at every effective width; tests that want the parallel
    merge exercised on tiny databases pass [~min_rows_per_domain:1]. *)
type par = {
  domains : int;
  pool : Cfq_exec_pool.Pool.t option;
  min_rows_per_domain : int;
}

(** [par domains] with [pool = None] and the default work floor
    ({!default_min_rows_per_domain}). *)
val par : ?pool:Cfq_exec_pool.Pool.t -> ?min_rows_per_domain:int -> int -> par

(** 2048 rows per participant. *)
val default_min_rows_per_domain : int

(** [{ domains = 1; pool = None; min_rows_per_domain = 2048 }] — the
    default. *)
val sequential : par

(** {2 Kernel plans and sessions} *)

type kernel =
  | Auto  (** cost-model choice per pass, plus shrinking projections *)
  | Trie  (** always the trie — the reference path, and the one faults pin *)
  | Direct2
      (** direct level-2 arrays where applicable, trie elsewhere; the
          default of [Exec.run] and the service *)
  | Vertical  (** switch to tid bitmaps at the first opportunity *)

val kernel_name : kernel -> string
val kernel_of_string : string -> kernel option

(** All kernels a CLI/shell can offer, with their names. *)
val all_kernels : (string * kernel) list

type plan = {
  kernel : kernel;
  budget_words : int;
      (** memory budget, in words, for any auxiliary structure (direct2
          cells, bitmaps, projections) *)
  projection : bool;  (** allow shrinking transaction projections *)
  vertical_min_card : int;
      (** [Auto] switches to bitmaps once every candidate of the pass has
          at least this cardinality (default 3) *)
  direct2_max_sparsity : int;
      (** admit direct2 only when cells <= sparsity * candidates *)
}

(** [Auto], 4M words, projections on, switchover at cardinality 3,
    sparsity 16. *)
val default_plan : plan

(** [plan_of_kernel k] is {!default_plan} pinned to [k]; fixed kernels get
    [projection = false] so their I/O profile isolates the kernel itself
    ([Auto] keeps projections on). *)
val plan_of_kernel : kernel -> plan

(** {2 Planner cutoffs}

    Pure predicates, unit-tested.  The cost-priced ones read fixed
    per-kernel unit costs from the committed bench machine profile, so
    every plan repeats exactly for the same input. *)

val direct2_admissible : plan -> n_cands:int -> n_cells:int -> bool
val vertical_admissible : plan -> n_live_items:int -> n_rows:int -> min_card:int -> bool
val projection_admissible : plan -> est_words:int -> bool

(** [vertical_cold_admissible] gates the {e charged} bitmap build: on top
    of {!vertical_admissible}, the estimated build-plus-probe time must not
    exceed the trie walk it displaces — the guard against standing bitmaps
    up when huge candidate sets over few rows make the probes alone slower
    than the scan. *)
val vertical_cold_admissible :
  plan ->
  n_live_items:int ->
  n_rows:int ->
  min_card:int ->
  avg_len:float ->
  n_cands:int ->
  bool

(** A session carries the adaptive state of one mining run over one
    database: the materialised bitmaps, the current projection, and the
    per-kernel pass counters.  Sessions are not thread-safe; use one per
    run. *)
type session

val create_session : ?plan:plan -> unit -> session


(** Kernel labels of the families of the most recent pass (aligned with
    the [families] argument), e.g. ["direct2"; "trie"]. *)
val last_kernels : session -> string list

(** Combined label of the most recent pass ("trie" before any pass). *)
val last_kernel : session -> string

type pass_counts = {
  trie_passes : int;
  direct2_passes : int;
  vertical_passes : int;
  projected_scans : int;  (** scans answered from a projection *)
  bitmap_builds : int;
}

(** Logical passes: a pass over a sharded composite counts once per
    kernel any shard ran (and once if any shard scanned a projection or
    built bitmaps), so the same mine under a fixed kernel reports the
    same counts on every backend. *)
val pass_counts : session -> pass_counts

(** One-line summary of {!pass_counts} for notes and reports. *)
val describe : session -> string

(** {2 Counting passes} *)

(** [count_level db io counters cands] counts all candidates in one pass and
    charges [Array.length cands] to the support-counted ccc counter. *)
val count_level :
  ?par:par ->
  ?session:session ->
  Tx_db.t ->
  Io_stats.t ->
  Counters.t ->
  Itemset.t array ->
  int array

(** [count_shared db io families] counts each family in the same pass;
    each family carries its own ccc counters.  When every family is empty
    the pass is skipped entirely and no I/O is charged.  Without a
    [session] this is exactly the trie path. *)
val count_shared :
  ?par:par ->
  ?session:session ->
  Tx_db.t ->
  Io_stats.t ->
  (Counters.t * Itemset.t array) list ->
  int array list
