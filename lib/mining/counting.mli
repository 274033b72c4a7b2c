(** Support counting passes over the transaction database.

    [count_pass] is the dovetailing primitive (Section 5.2): several
    candidate families — typically one for the [S] lattice and one for the
    [T] lattice — are counted in a {e single} scan, so the I/O cost of the
    pass is shared between them.  A family is a {!Candidate.t}: listed
    sets, or for levels 1 and 2 an implicit form (every permitted item,
    every pair of some items, or every pair holding a witness) that the
    direct kernels count with no itemset per candidate.

    {2 Kernels}

    Each family of a pass is counted by one of three representations, all
    fed by the same scan loop:

    {ul
    {- {e trie} — {!Trie}: the general flat-array trie walk, any
       cardinality; the reference path;}
    {- {e histogram} — one item-count array per participant, shared by
       every family of the pass whose candidates are all singletons; each
       row increments the counts of its items once, however many singleton
       families the pass carries, and each family reads its counts off the
       histogram at the end;}
    {- {e direct2} — {!Direct2}: a triangular count array over the ranks of
       the level-2 candidates' items, no trie.}}

    Under the [Trie] kernel every family gets a trie, an implicit one
    over its expansion ({!Candidate.to_sets}), and every row is walked
    whole: the reference path.  Under the [Direct2] kernel a non-empty
    all-singleton family (or [Items] form) gets the histogram, an
    all-pairs family (or pair form) gets the direct2 array when
    {!direct2_admissible} holds for its candidate count and the triangle
    over its items, and every other family gets a trie, an implicit one
    over its expansion.  So an implicit family gets the representation,
    label and counts its expansion would.  Histogram and direct2 families
    are both labelled ["direct2"].  Two more rules make a [Direct2] pass
    walk each row once:

    {ul
    {- {e shared triangle} — when two or more families get a direct2
       array, they share one triangle over the items of all their
       candidates, if it is admissible for their distinct candidates
       (duplicates counted once); each family reads its candidates' cells
       off it, an implicit family only at {!frequent}.  Otherwise each
       keeps its own;}
    {- {e row trimming} — when every family is a trie of sets of at least
       [k >= 2] items, each row is first cut down to the items that occur
       in some candidate, and a row left with fewer than the smallest [k]
       is skipped;}
    {- {e witness skipping} — a family of a witness form (every candidate
       holds one of its witnesses) skips the rows holding none, through a
       witness mask next to the trimming mask; its pairs are counted into
       a rectangle of the witnesses' rows rather than the triangle (see
       {!Direct2.of_items}).  The pass still reads and charges every
       row.}}

    The trie kernel walks every row whole.

    The row callback allocates nothing: each participant holds its
    histogram, the shared cells and one accumulator per family in arrays,
    trims rows into a scratch it reuses, and the trie walk is
    allocation-free.

    Contract: the counts, and therefore every frequent-set collection and
    answer downstream, are byte-identical to the trie path for every
    kernel, domain count and backend.  The ccc support-counted charge is
    per candidate ({!Candidate.count}, by arithmetic for an implicit
    family) and kernel-independent.  All representations walk the
    same pages in the same order, so every scan, page and fault charge is
    the paper's for every kernel, faults installed or not (see
    doc/COUNTING.md).

    Every pass can run multi-core via {!par}: the coordinator charges and
    validates one logical scan, then page-aligned chunks fan out to a fixed
    set of domains (see {!Cfq_exec_pool.Pool.fan_out}), each counting into
    its own histogram and per-family accumulators, merged by addition in
    participant-slot order at the end.
    The answers, ccc counters, I/O charges, and fault behaviour are
    identical to the sequential pass for every [domains] value.

    {2 Count distribution}

    Over a sharded composite ({!Tx_db.of_shards} with two or more shards)
    each pass fans out per shard instead of per chunk: the coordinator
    builds the family representations once, every shard counts the full
    candidate set against its own slice with them, and the coordinator sums
    the partial supports in shard order — supports are additive over a partition, so the
    totals are exact.  The caller is charged one logical composite scan per
    pass, each shard's local I/O lands in its {!Tx_db.shard_io} sink, and
    {!pass_counts} counts the distributed pass once, as on an unsharded
    database.  Any backend fault ({!Tx_db.backend_faulted}) makes shards
    run in index order, so the injector draw sequence is deterministic;
    shard-local error pages are translated to composite coordinates. *)

open Cfq_txdb

(** How a counting pass parallelises.  [domains <= 1] is the sequential
    path, bit for bit.  With [domains > 1], up to [domains - 1] helpers are
    either fresh domains ([pool = None]) or borrowed idle workers of
    [pool] — the nested case where the query already runs on a service
    worker and must not oversubscribe the machine.

    [min_rows_per_domain] is the work floor of a parallel region: a pass
    over fewer than [min_rows_per_domain] rows per participant runs with
    fewer participants, down to sequential — fanning a few hundred rows out
    costs more than the rows.  Results are bit-identical at every
    effective width; tests that want the parallel merge exercised on tiny
    databases pass [~min_rows_per_domain:1]. *)
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

(** {2 Kernels and sessions} *)

type kernel =
  | Trie  (** always the trie — the reference path *)
  | Direct2
      (** direct arrays for levels 1 and 2 — the item histogram for
          singleton families, the direct2 array for admissible pair
          families — and the trie elsewhere; the default of [Exec.run] and
          the service *)

val kernel_name : kernel -> string
val kernel_of_string : string -> kernel option

(** All kernels a CLI/shell can offer, with their names. *)
val all_kernels : (string * kernel) list

(** 4M words: the most cells one direct2 accumulator may hold. *)
val direct2_budget_words : int

(** 16: direct2 is admitted only when cells <= 16 * candidates. *)
val direct2_max_sparsity : int

(** [direct2_admissible ~n_cands ~n_cells] — a level-2 family of [n_cands]
    candidates whose {!Direct2} layout has [n_cells] cells fits the budget
    and is dense enough to beat the trie. *)
val direct2_admissible : n_cands:int -> n_cells:int -> bool

(** A session carries one mining run's kernel and its per-kernel pass
    counters.  Sessions are not thread-safe; use one per run. *)
type session

val create_session : kernel -> session

type pass_counts = { trie_passes : int; direct2_passes : int }

(** Logical passes per kernel: a pass whose families used both
    representations counts once for each, and a pass over a sharded
    composite counts once, so the same mine reports the same counts on
    every backend. *)
val pass_counts : session -> pass_counts

(** How the most recent pass shared its work under [Direct2]:
    [shared_families] pair families read their supports off one shared
    level-2 triangle or rectangle (0 when each counted its own), and
    [rows_skipped] rows were counted by no family: trimmed below the
    smallest candidate, or holding no witness of any family that skips
    such rows (0 when the pass walked rows whole).  Both are the same for
    every domain count and backend. *)
type pass_shape = { shared_families : int; rows_skipped : int }

val last_shape : session -> pass_shape

(** One-line summary of {!pass_counts} for notes and reports:
    [trie=N direct2=M]. *)
val describe : session -> string

(** The same summary of given pass counts. *)
val describe_counts : pass_counts -> string

(** {2 Counting passes} *)

(** A family's supports after a pass. *)
type supports

(** Number of candidates the supports cover. *)
val n_supports : supports -> int

(** The representation that counted the family: ["trie"], or ["direct2"]
    for the histogram and the direct2 array.  A family of a skipped pass
    (every family empty) reads ["trie"], as an empty family does in a
    counted one. *)
val label : supports -> string

(** The supports in candidate order.  Raises [Invalid_argument] on an
    implicit pair family counted into a triangle: read those with
    {!frequent}. *)
val counts : supports -> int array

(** [frequent s ~minsup] is the candidates with support at least [minsup],
    in {!Itemset.compare} order.  Only these are built as itemsets: an
    implicit pair family counted into a triangle is read cell by cell in
    that order and needs no sort. *)
val frequent : supports -> minsup:int -> Frequent.entry array

(** [count_pass db io families] counts each family, explicit or implicit
    ({!Candidate.t}), in the same pass; each family carries its own ccc
    counters and is charged {!Candidate.count} supports counted.  When
    every family is empty the pass is skipped entirely and no I/O is
    charged.  Without a [session] every family is counted with the trie.
    It is the only way to count supports: mining, live maintenance, rule
    supports and the baselines all call it, and a caller that keeps no
    ccc counters passes a fresh {!Counters.create}. *)
val count_pass :
  ?par:par ->
  ?session:session ->
  Tx_db.t ->
  Io_stats.t ->
  (Counters.t * Candidate.t) list ->
  supports list
