(** A concurrent CFQ query service with cross-query result caching.

    The service sits above {!Cfq_core.Exec}'s machinery and serves many
    CFQs against one database, exploiting the exploratory-session workload
    the paper targets (Section 1): users refine a query repeatedly, so
    consecutive queries overlap heavily.  Three levels of reuse apply, in
    order:

    {ol
    {- {e answer cache} — a query whose canonical {!Fingerprint} was served
       before returns its pairs verbatim, zero mining (after a live seal,
       brought up to date first by a delta join; see {!seal_live});}
    {- {e subsumption reuse} — a side whose frequent collection was mined
       at support ≤ the requested threshold under 1-var constraints entailed
       by the requested ones ({!Entail.subsumes}) is answered by filtering
       that cached collection and re-forming pairs, no mining (the reuse
       rule of Goethals & Van den Bussche, {e Interactive Constrained
       Association Rule Mining});}
    {- {e relaxation} — a side with a cached {e neighbour}, a collection
       that would cover it but for one bound the request widens
       ({!Entail.widening}), keeps the neighbour's sets and mines only the
       sets holding a witness of that bound's negation (a CAP run under
       the negation, whose passes above level 1 count only the rows
       holding a witness); the
       merge is cached under the request's key and the side counts as
       mined;}
    {- {e cold mining} — remaining sides run the CAP engine, and the mined
       collections enter the cache for later queries.}}

    Cold sides mine with 1-var CAP pruning only (the {!Plan.Cap_one_var}
    discipline): a collection pruned by 2-var machinery would be specific
    to one query and useless for reuse.  2-var constraints are enforced at
    pair formation, so answers equal {!Exec.run}'s under every strategy.

    Both caches store a compact form: side collections closed-set
    condensed ({!Cfq_mining.Condensed}, where provably lossless) and
    answers index-packed; lookups rebuild the raw form on demand.

    Queries run on a fixed pool of worker domains with a bounded admission
    queue and a per-query wall-clock deadline, checked between mining
    levels (cooperative cancellation).  All shared state (caches, metrics)
    is guarded by one service lock; the mining itself runs lock-free on
    immutable inputs.

    {2 Fault tolerance}

    The service expects the transaction store to fail
    ({!Cfq_txdb.Fault} injection, or a real flaky medium) and degrades in
    stages rather than falling over:

    {ul
    {- {e retries} — a query killed by a transient I/O error
       ([Cfq_error.Transient_io]) is retried up to [config.retries] times
       with exponential backoff and deterministic jitter, within its
       deadline;}
    {- {e graceful degradation} — a query that still fails (or misses its
       deadline) is served by filtering an {e entailed cached superset
       answer} when one exists; the pairs are exact (the store is
       immutable and cached pairs carry absolute supports) and the answer
       is flagged {!Degraded};}
    {- {e circuit breaker} — [config.breaker_threshold] consecutive
       failures (or queue-full rejections) trip the breaker: subsequent
       queries are served from the caches when possible and otherwise shed
       with {!Overloaded}, for [config.breaker_cooldown] admissions, after
       which one probe query is let through (half-open) and its outcome
       closes or reopens the breaker.  The cooldown is admission-counted,
       not wall-clock, so breaker behaviour is deterministic under a
       deterministic submission order.}} *)

open Cfq_txdb
open Cfq_mining
open Cfq_core

type config = {
  domains : int;  (** worker domains (≥ 1) *)
  mine_domains : int;
      (** intra-query counting parallelism: each mining scan fans out over
          this many domains, borrowing {e idle} workers from the same pool
          (never spawning), so concurrency stays bounded by [domains].
          [0] inherits [domains]; [1] counts sequentially.  Answers and
          counters are identical either way. *)
  queue_capacity : int;  (** max queries waiting for a worker *)
  cache_budget : int;  (** total cache memory budget, approximate bytes *)
  default_deadline : float option;  (** seconds, when [submit] gives none *)
  retries : int;  (** max retries of a [Transient_io]-failed query *)
  backoff_base : float;  (** seconds; retry [n] waits [base·2ⁿ·(0.5+j)] *)
  breaker_threshold : int;
      (** consecutive failures (or rejections) that trip the breaker;
          [0] disables the breaker *)
  breaker_cooldown : int;  (** admissions shed while open before a probe *)
  degrade : bool;  (** serve failed queries from entailed cached answers *)
  jitter_seed : int64;  (** seed of the deterministic backoff jitter *)
  kernel : Cfq_mining.Counting.kernel;
      (** support-counting kernel for cold side mining (default
          [Direct2], which charges the trie's scan-per-level I/O; see
          {!Cfq_mining.Counting.kernel}).  Answers are identical for every
          kernel; the per-kernel pass counts appear in {!Metrics}. *)
}

(** 2 domains (mining inherits them), queue 1024, 64 MiB budget, no
    deadline; 2 retries from a 2 ms base, breaker at 5 failures with an
    8-admission cooldown, degradation on, direct2 counting. *)
val default_config : config

(** One service knob the front ends expose: the shell's [set NAME VALUE]
    and the CLI's [--NAME VALUE] flags are both generated from {!knobs}. *)
type knob = {
  name : string;
  doc : string;  (** plain text, one or two sentences *)
  print : config -> string;  (** the knob's current value *)
  parse : string -> config -> (config, string) result;
      (** validate a value and set it; the [Error] names the knob *)
}

(** domains, mine-domains, cache-mb, deadline, retries, breaker-threshold
    and kernel, in that order. *)
val knobs : knob list

(** [run_once config ?strategy ~collect_pairs ctx q] runs one query
    directly, as [cfq run] and the shell's [run] do, not through a
    service, under the knobs a single run reads: [kernel], and
    [mine-domains], where 0 leaves the width to {!Cfq_core.Exec.run}
    (every recommended domain from 4,096 rows). *)
val run_once :
  config ->
  ?strategy:Plan.strategy ->
  collect_pairs:bool ->
  Exec.ctx ->
  Query.t ->
  (Exec.result, Cfq_error.t) result

type served_from =
  | Cold  (** at least one side ran the mining engine *)
  | Answer_cache  (** verbatim answer-cache hit *)
  | Subsumed  (** both sides filtered from cached collections *)
  | Degraded
      (** served by filtering an entailed cached superset answer after the
          query itself failed; pairs are exact, cost counters are not *)

val served_from_name : served_from -> string

type answer = {
  pairs : (Frequent.entry * Frequent.entry) list;
  n_pairs : int;
  served_from : served_from;
  support_counted : int;  (** sets support-counted {e for this query} *)
  constraint_checks : int;  (** 1-var validations + 2-var pair checks *)
  scans : int;
  pages_read : int;
  latency_seconds : float;
  notes : string list;
}

type error =
  | Rejected  (** admission queue full *)
  | Overloaded  (** shed by the open circuit breaker *)
  | Deadline_exceeded
  | Fault of Cfq_error.t
      (** the store faulted (after retries, for transients) and no cached
          answer could cover the query *)
  | Failed of string

val error_to_string : error -> string

type t

(** [create ?config ctx] starts the worker domains.  The service owns no
    I/O: [ctx]'s database and tables are shared, immutable. *)
val create : ?config:config -> Exec.ctx -> t

val ctx : t -> Exec.ctx
val config : t -> config

type ticket

(** [submit t ?deadline q] enqueues [q]; [Error Rejected] when the
    admission queue is full, [Error Overloaded] when the open circuit
    breaker sheds it (cache-answerable queries are still served while
    open).  [deadline] is a wall-clock budget in seconds from now
    (overrides [config.default_deadline]); a query still queued or between
    mining levels past its deadline completes with
    [Error Deadline_exceeded] (or a {!Degraded} answer). *)
val submit : t -> ?deadline:float -> Query.t -> (ticket, error) result

(** Blocks until the submitted query finishes. *)
val await : ticket -> (answer, error) result

(** [run t ?deadline q] is submit-and-await, executing inline in the
    calling domain when the queue is full (sync callers always get an
    answer).  The deadline is fixed once at admission, so the inline
    fallback runs under the same budget the pooled path would have had;
    fallback executions are counted ([inline_runs]). *)
val run : t -> ?deadline:float -> Query.t -> (answer, error) result

(** [run_many t qs] submits everything (awaiting oldest tickets when the
    queue fills) and returns the answers in input order. *)
val run_many : t -> ?deadline:float -> Query.t list -> (answer, error) result list

val metrics : t -> Metrics.snapshot
val metrics_table : t -> Cfq_report.Table.t

(** {2 Live ingestion}

    With a {!Cfq_live.Source} attached the service stays {e live} across
    seals instead of cold-starting.  Every cache entry carries the
    {e epoch} (monotone database generation, minted per seal) its supports
    are exact for, and every lookup path — answer cache, subsumption,
    degraded serving, breaker-open cache serving — checks the stamp.
    {!seal_live} seals the pending appends and runs a maintenance pass on
    the worker pool: one shared FUP pass promotes every cached side
    collection (one delta count against a resident twin of just the
    appended transactions; the candidates the delta seeds for all sides
    are counted against the old, still-readable pre-seal snapshot in at
    most one scan per seal).  Side entries a fault or budget refusal
    leaves behind are purged, so the side cache always lands on one
    consistent epoch.

    Cached answers are not re-derived at the seal: it only re-keys them
    for the new database, keeping their old epoch.  The next lookup of a
    stale answer promotes it by a {e delta join} over the covering side
    collections at the current epoch: the old pairs whose two sets are
    still valid, re-supported, plus pair formation over the newcomers
    only.  2-var constraints read item attributes, never supports, so
    this answers exactly what a cold remine would; it is served
    {!Answer_cache} with no scan and no support counted.  A stale answer
    whose sides have no covering collection is dropped, and the query
    takes the subsumption or cold path. *)

(** Attach the ingestion source this service serves (its database view
    must be the ctx's database).  Resets the service epoch to the
    source's. *)
val attach_source : t -> Cfq_live.Source.t -> unit

val live_source : t -> Cfq_live.Source.t option

(** Current epoch: 0 at creation, +1 per {!seal_live} that sealed
    anything. *)
val epoch : t -> int

(** Append one transaction through the attached source (visible after the
    next {!seal_live}).  Raises [Cfq_error.Error No_live_source] with no
    source. *)
val ingest : t -> Cfq_itembase.Itemset.t -> unit

(** One seal's maintenance outcome. *)
type live = {
  lv_epoch : int;  (** the epoch this seal minted *)
  lv_sealed : int;  (** transactions folded in *)
  lv_sides_promoted : int;
  lv_sides_evicted : int;
  lv_answers_promoted : int;
      (** answers carried across the seal, re-keyed for their next lookup
          (which promotes them, counted in [Metrics] [answers_promoted]) *)
  lv_answers_evicted : int;
      (** answers dropped at the seal: two re-keyed answers landed on one
          key *)
  lv_recounted : int;
      (** distinct seeded candidates counted against the old db *)
  lv_old_scans : int;
      (** full old-database scans the shared pass paid (at most 1) *)
  lv_scans : int;  (** all maintenance scans (extraction, twin pass, old db) *)
  lv_pages_read : int;  (** pages charged — delta-sized, not database-sized *)
  lv_pass_counts : Counting.pass_counts;
      (** the old-database recount's passes per kernel (0 or 1 in all):
          it counts on the service's [kernel] *)
}

(** One line per seal: [epoch N: sealed K transactions; …] with every
    count of the record, as [cfq serve --ingest] and the shell print it. *)
val live_to_string : live -> string

(** [seal_live t] seals pending appends and maintains the caches across
    the new epoch (see above).  [None] when nothing was pending — the
    epoch does not move.  Raises [Cfq_error.Error No_live_source] with no
    source attached. *)
val seal_live : t -> live option

(** [ingest_file t fimi] appends every transaction of a FIMI file
    through the attached source and {!seal_live}s them, as [cfq serve
    --ingest] and the shell's [ingest] do: the number appended and the
    seal's outcome, or an unreadable file or a store fault as text.
    Raises [Cfq_error.Error No_live_source] with no source attached. *)
val ingest_file : t -> string -> (int * live option, string) result

(** [retry_delay t q attempt] is the backoff slept before retry [attempt]
    of [q]: [backoff_base · 2ᵃ · (0.5 + j)] where the jitter [j ∈ [0,1)]
    is a pure function of ([config.jitter_seed], [q], [attempt]) — no
    shared random stream, so the delay schedule is identical across runs,
    domain counts, and retry interleavings.  Exposed for determinism
    tests. *)
val retry_delay : t -> Query.t -> int -> float

(** Drop both caches (metrics keep accumulating). *)
val cache_clear : t -> unit

(** Drop the mined side collections but keep cached answers — an
    administrative recovery hook: when the store starts failing, rebuilding
    collections is pointless, but validated answers remain servable
    (degraded). *)
val cache_drop_sides : t -> unit

(** Finish running work and join the worker domains.  Idempotent; the
    caches survive, so a shut-down service can still [run] inline. *)
val shutdown : t -> unit
