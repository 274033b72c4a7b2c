open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining
open Cfq_core
open Cfq_exec_pool

let log_src = Logs.Src.create "cfq.service" ~doc:"CFQ query service"

module Log = (val Logs.src_log log_src)

type config = {
  domains : int;
  mine_domains : int;
  queue_capacity : int;
  cache_budget : int;
  default_deadline : float option;
  retries : int;
  backoff_base : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  degrade : bool;
  jitter_seed : int64;
  kernel : Counting.kernel;
}

let default_config =
  {
    domains = 2;
    mine_domains = 0;
    queue_capacity = 1024;
    cache_budget = 64 * 1024 * 1024;
    default_deadline = None;
    retries = 2;
    backoff_base = 0.002;
    breaker_threshold = 5;
    breaker_cooldown = 8;
    degrade = true;
    jitter_seed = 0x0DDB1A5EL;
    kernel = Counting.Direct2;
  }

type knob = {
  name : string;
  doc : string;
  print : config -> string;
  parse : string -> config -> (config, string) result;
}

(* a knob whose values [of_string] reads: [None] for a value that is not
   [expected] *)
let knob name ~doc ~expected print of_string set =
  {
    name;
    doc;
    print;
    parse =
      (fun v c ->
        match of_string v with
        | Some x -> Ok (set c x)
        | None -> Error (Printf.sprintf "%s: expected %s, got %S" name expected v));
  }

let int_knob name ~min ~doc get set =
  knob name ~doc ~expected:(Printf.sprintf "an integer >= %d" min)
    (fun c -> string_of_int (get c))
    (fun v -> Option.bind (int_of_string_opt v) (fun n -> if n >= min then Some n else None))
    set

(* shortest decimal that reads back as the same float *)
let print_float x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let mib = 1024 * 1024

let knobs =
  [
    int_knob "domains" ~min:1 ~doc:"Worker domains of the query service."
      (fun c -> c.domains)
      (fun c domains -> { c with domains });
    int_knob "mine-domains" ~min:0
      ~doc:
        "Domains each counting scan fans out over, borrowed from idle \
         workers; 0 inherits domains (for a single run: every recommended \
         domain of the machine, from 4,096 rows), 1 counts sequentially."
      (fun c -> c.mine_domains)
      (fun c mine_domains -> { c with mine_domains });
    int_knob "cache-mb" ~min:0 ~doc:"Cache memory budget in MiB."
      (fun c -> c.cache_budget / mib)
      (fun c mb -> { c with cache_budget = mb * mib });
    knob "deadline" ~doc:"Per-query wall-clock deadline in seconds; none = unbounded."
      ~expected:"a positive number of seconds or none"
      (fun c -> match c.default_deadline with None -> "none" | Some s -> print_float s)
      (fun v ->
        match (v, float_of_string_opt v) with
        | ("none" | "off"), _ -> Some None
        | _, Some s when s > 0. -> Some (Some s)
        | _ -> None)
      (fun c default_deadline -> { c with default_deadline });
    int_knob "retries" ~min:0 ~doc:"Max retries of a transiently failed query."
      (fun c -> c.retries)
      (fun c retries -> { c with retries });
    int_knob "breaker-threshold" ~min:0
      ~doc:"Consecutive failures that trip the circuit breaker (0 disables)."
      (fun c -> c.breaker_threshold)
      (fun c breaker_threshold -> { c with breaker_threshold });
    knob "kernel"
      ~doc:
        "Support-counting kernel: trie (the reference scan-per-level path) or \
         direct2 (the default: direct level-1 and level-2 count arrays, the trie's \
         page charges).  Answers are identical for every kernel."
      ~expected:("one of " ^ String.concat ", " (List.map fst Counting.all_kernels))
      (fun c -> Counting.kernel_name c.kernel)
      Counting.kernel_of_string
      (fun c kernel -> { c with kernel });
  ]

let run_once config ?strategy ~collect_pairs ctx q =
  let par =
    if config.mine_domains = 0 then None else Some (Counting.par config.mine_domains)
  in
  Exec.run_result ?strategy ~collect_pairs ?par ~kernel:config.kernel ctx q

type served_from =
  | Cold
  | Answer_cache
  | Subsumed
  | Degraded

let served_from_name = function
  | Cold -> "cold"
  | Answer_cache -> "answer-cache"
  | Subsumed -> "subsumed"
  | Degraded -> "degraded"

type answer = {
  pairs : (Frequent.entry * Frequent.entry) list;
  n_pairs : int;
  served_from : served_from;
  support_counted : int;
  constraint_checks : int;
  scans : int;
  pages_read : int;
  latency_seconds : float;
  notes : string list;
}

type error =
  | Rejected
  | Overloaded
  | Deadline_exceeded
  | Fault of Cfq_error.t
  | Failed of string

let error_to_string = function
  | Rejected -> "rejected: admission queue full"
  | Overloaded -> "overloaded: circuit breaker open"
  | Deadline_exceeded -> "deadline exceeded"
  | Fault e -> "fault: " ^ Cfq_error.to_string e
  | Failed msg -> "failed: " ^ msg

(* circuit breaker: [Open n] sheds the next [n] admissions, then half-opens;
   the cooldown is admission-counted, not wall-clock, so breaker behaviour
   is deterministic under a deterministic submission order *)
type breaker_state =
  | Closed
  | Open of int
  | Half_open

(* one breaker, the service's or a shard's: its state and its run of
   consecutive failures, guarded by the service lock *)
type breaker = { mutable state : breaker_state; mutable consec : int }

let closed_breaker () = { state = Closed; consec = 0 }

(* per-shard health of a sharded backend: failures whose error pages fall
   in a shard's range charge that shard's breaker, so one faulty shard
   degrades its own admissions to cache-only serving while the others keep
   mining.  All fields are guarded by the service lock. *)
type shard_health = {
  sh_breaker : breaker;
  mutable sh_admissions : int;
  mutable sh_failures : int;
  mutable sh_trips : int;
  mutable sh_shed : int;
}

type t = {
  mutable service_ctx : Exec.ctx;
      (* swapped (under [lock]) by [seal_live]: queries capture it together
         with [epoch] at admission and run against that snapshot — a store
         handle obtained before a seal stays readable *)
  mutable epoch : int;
      (* monotone database generation, minted by [seal_live]; every cache
         entry is stamped with the epoch its supports are exact for, and
         every lookup path checks the stamp, so a seal can never serve
         stale supports *)
  mutable live_source : Cfq_live.Source.t option;
  service_config : config;
  pool : Pool.t;
  mine_par : Counting.par;
      (* intra-query counting parallelism: helpers are borrowed from [pool],
         never spawned, so the service as a whole never oversubscribes *)
  lock : Mutex.t;
  answers : Answer_cache.entry Lru.t;
  sides : Side_cache.entry Lru.t;
  service_metrics : Metrics.t;
  breaker : breaker;
  mutable consec_rejections : int;
  shard_health : shard_health array;  (* one per shard; [||] unsharded *)
}

type ticket =
  | Pooled of (answer, error) result Pool.promise
  | Immediate of (answer, error) result

let create ?(config = default_config) ctx =
  (* answers are small relative to collections: 1/4 vs 3/4 of the budget *)
  let budget = max 0 config.cache_budget in
  let pool = Pool.create ~domains:config.domains ~queue_capacity:config.queue_capacity () in
  let mine_domains =
    if config.mine_domains = 0 then config.domains else max 1 config.mine_domains
  in
  {
    service_ctx = ctx;
    epoch = 0;
    live_source = None;
    service_config = config;
    pool;
    mine_par = Counting.par ~pool mine_domains;
    lock = Mutex.create ();
    answers = Lru.create ~budget:(budget / 4);
    sides = Lru.create ~budget:(budget - (budget / 4));
    service_metrics = Metrics.create ();
    breaker = closed_breaker ();
    consec_rejections = 0;
    shard_health =
      Array.init
        (match Tx_db.shards ctx.Exec.db with Some subs -> Array.length subs | None -> 0)
        (fun _ ->
          {
            sh_breaker = closed_breaker ();
            sh_admissions = 0;
            sh_failures = 0;
            sh_trips = 0;
            sh_shed = 0;
          });
  }

let ctx t = t.service_ctx
let config t = t.service_config
let epoch t = t.epoch

let locked t f = Mutex.protect t.lock f

(* ------------------------------------------------------------------ *)
(* side collections: priced as they enter the cache, rebuilt on lookup *)

(* with [t.lock] held: price a side collection entering the cache, so the
   ratio metrics see every insert *)
let record_condensed_locked t cond =
  Metrics.record_condensed t.service_metrics ~raw:(Condensed.raw_bytes cond)
    ~stored:(Condensed.bytes cond) ~condensed:(Condensed.is_condensed cond)

(* rebuild a side's raw collection — one reconstruction paid when the
   closed form is stored.  Never call with [t.lock] held. *)
let side_frequent t entry =
  let cond = Side_cache.condensed entry in
  if Condensed.is_condensed cond then
    locked t (fun () -> Metrics.record_reconstruction t.service_metrics);
  Condensed.to_frequent cond

(* ------------------------------------------------------------------ *)
(* answers *)

(* The one place an answer is built and its pairs unpacked: never with
   [t.lock] held, so a large answer does not stall the other domains'
   lookups and inserts.  Its latency runs from [t0], the admission of an
   executed query; an answer served from the caches alone reads 0. *)
let answer ?t0 ~served_from ~support_counted ~constraint_checks ~scans ~pages_read ~notes pk =
  let pairs = Packed.pairs pk in
  {
    pairs;
    n_pairs = Packed.n_pairs pk;
    served_from;
    support_counted;
    constraint_checks;
    scans;
    pages_read;
    latency_seconds = (match t0 with Some t0 -> Unix.gettimeofday () -. t0 | None -> 0.);
    notes;
  }

let hit_answer ?t0 e =
  answer ?t0 ~served_from:Answer_cache ~support_counted:0 ~constraint_checks:0 ~scans:0
    ~pages_read:0 ~notes:(Answer_cache.notes e) (Answer_cache.packed e)

(* a covering answer's sides filtered and joined under the request;
   the pairs are exact, the cost counters are not *)
let degraded_answer (ctx, q, e) =
  let checks, pk = Answer_cache.degrade ctx q e in
  answer ~served_from:Degraded ~support_counted:0 ~constraint_checks:checks ~scans:0
    ~pages_read:0 ~notes:[ "degraded: joined from a cached superset answer's sides" ] pk

(* with [t.lock] held: an answer-cache hit, served [latency] seconds after
   admission at no database cost *)
let record_hit_locked t ~latency =
  Metrics.record_reconstruction t.service_metrics;
  Metrics.record_query t.service_metrics ~latency ~support_counted:0 ~constraint_checks:0
    ~scans:0 ~pages_read:0

(* ------------------------------------------------------------------ *)
(* deadline handling *)

exception Expired

let check_deadline = function
  | Some d when Unix.gettimeofday () > d -> raise Expired
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* side resolution: plan from the side cache, then run the plan *)

(* drive the CAP state machine one level at a time so the deadline is
   honoured between scans; charges [counters] and returns the collection
   with the mine's pass counts *)
let mine_cold t ~deadline (ctx : Exec.ctx) (spec : Side_cache.spec) io counters =
  let bundle = Bundle.compile ~nonneg:ctx.Exec.nonneg spec.info spec.constraints in
  let state =
    Cap.create ctx.Exec.db spec.info ?max_level:spec.max_level ~minsup:spec.minsup bundle
  in
  (* one session per cold mine: its pass counts feed the metrics *)
  let session = Counting.create_session t.service_config.kernel in
  let rec loop () =
    check_deadline deadline;
    if Cap.step ~par:t.mine_par ~session state io then loop ()
  in
  loop ();
  Counters.merge counters (Cap.counters state);
  (Cap.result state, Counting.pass_counts session)

(* record a mine and cache its collection under [spec] at [epoch], unless
   a seal has raced the mine: supports counted against the pre-seal
   snapshot must not enter the cache at the new epoch *)
let cache_mined t ~epoch ~relaxed spec freq (passes : Counting.pass_counts) =
  let entry = Side_cache.fresh ~epoch spec (Condensed.of_frequent freq) in
  locked t (fun () ->
      let m = t.service_metrics in
      Metrics.record_side_mined m;
      if relaxed then Metrics.record_side_relaxed m;
      Metrics.record_kernel_passes m ~trie:passes.Counting.trie_passes
        ~direct2:passes.Counting.direct2_passes;
      record_condensed_locked t (Side_cache.condensed entry);
      if t.epoch = epoch then Side_cache.insert t.sides entry)

(* the side's plan: looked up under the lock, a neighbour chosen outside
   it, the chosen neighbour bumped *)
let plan_side t ~(ctx : Exec.ctx) ~epoch spec =
  let found =
    locked t (fun () ->
        let found = Side_cache.lookup t.sides ~epoch spec in
        (match found with
        | Side_cache.Covering _ -> Metrics.record_subsumption_hit t.service_metrics
        | Side_cache.Neighbours _ -> ());
        found)
  in
  match Side_cache.plan ~nonneg:ctx.Exec.nonneg spec found with
  | Side_cache.Relaxed (e, _) as plan ->
      locked t (fun () -> Side_cache.bump t.sides e);
      plan
  | (Side_cache.Covered _ | Side_cache.Cold) as plan -> plan

(* A side is planned and then run: filtered from a covering entry, grown
   from a neighbour by a relaxation, or mined cold.  Returns the valid
   sets, whether no mining ran, and a note. *)
let resolve_side t ~deadline ~ctx ~epoch ~side spec io counters checks =
  check_deadline deadline;
  match plan_side t ~ctx ~epoch spec with
  | Side_cache.Covered e -> (Side_cache.filter_valid spec (side_frequent t e) checks, true, None)
  | Side_cache.Relaxed (e, atom) ->
      let relax = Side_cache.relaxation spec atom in
      let mined, passes = mine_cold t ~deadline ctx relax io counters in
      let merged =
        Side_cache.merge_relaxation spec atom ~relax ~neighbour:(side_frequent t e) ~mined
          checks
      in
      cache_mined t ~epoch ~relaxed:true spec merged passes;
      let note =
        Printf.sprintf "%s side relaxed: cached under %s, mined only %s" side
          (One_var.to_string atom)
          (One_var.to_string (Entail.negation atom))
      in
      (Array.of_list (Frequent.to_list merged), false, Some note)
  | Side_cache.Cold ->
      let freq, passes = mine_cold t ~deadline ctx spec io counters in
      cache_mined t ~epoch ~relaxed:false spec freq passes;
      (* filter the collection as mined: the cold path never pays a
         reconstruction *)
      (Side_cache.filter_valid spec freq checks, false, None)

(* ------------------------------------------------------------------ *)
(* promoting a cached answer across seals *)

(* bring [e], the stale answer to [q], up to [epoch] by a delta join over
   the covering side collections at [epoch].  [None] drops the answer: a
   side has no covering collection, so the caller serves [q] through the
   subsumption or cold path instead. *)
let promote_answer t ~ctx ~epoch (q : Query.t) e =
  let spec_s = Side_cache.side ctx q `S and spec_t = Side_cache.side ctx q `T in
  let covering =
    locked t (fun () ->
        let found_t = Side_cache.lookup t.sides ~epoch spec_t in
        match (Side_cache.lookup t.sides ~epoch spec_s, found_t) with
        | Side_cache.Covering cs, Side_cache.Covering ct -> Some (cs, ct)
        | _ ->
            Answer_cache.drop t.answers e;
            Metrics.record_answer_miss t.service_metrics;
            Metrics.record_answer_evicted t.service_metrics;
            None)
  in
  Option.map
    (fun (cs, ct) ->
      let checks = ref 0 in
      let valid_s = Side_cache.filter_valid spec_s (side_frequent t cs) checks in
      let valid_t = Side_cache.filter_valid spec_t (side_frequent t ct) checks in
      let e' = Answer_cache.promote ctx ~epoch q e ~valid_s ~valid_t in
      locked t (fun () ->
          Answer_cache.insert t.answers t.service_metrics ~current:t.epoch e';
          Metrics.record_answer_hit t.service_metrics;
          Metrics.record_answer_promoted t.service_metrics);
      e')
    covering

(* ------------------------------------------------------------------ *)
(* one query, in a worker domain *)

let execute t ~deadline (q : Query.t) =
  let t0 = Unix.gettimeofday () in
  (* one consistent snapshot: the ctx and the epoch its supports belong to *)
  let ctx, epoch = locked t (fun () -> (t.service_ctx, t.epoch)) in
  let rw = Rewrite.simplify q in
  let q = rw.Rewrite.query in
  let unsat = rw.Rewrite.s_unsat || rw.Rewrite.t_unsat in
  let key = Fingerprint.query_key ctx q in
  let cached =
    match
      locked t (fun () ->
          match Answer_cache.lookup t.answers ~epoch key with
          | Answer_cache.Hit _ as found ->
              Metrics.record_answer_hit t.service_metrics;
              found
          | Answer_cache.Stale _ as found when not unsat -> found
          | Answer_cache.Stale _ | Answer_cache.Miss ->
              Metrics.record_answer_miss t.service_metrics;
              Answer_cache.Miss)
    with
    | Answer_cache.Hit e -> Some e
    | Answer_cache.Stale e -> promote_answer t ~ctx ~epoch q e
    | Answer_cache.Miss -> None
  in
  match cached with
  | Some e ->
      let a = hit_answer ~t0 e in
      locked t (fun () -> record_hit_locked t ~latency:a.latency_seconds);
      a
  | None ->
      let io = Io_stats.create () in
      let counters = Counters.create () in
      let checks = ref 0 in
      let served_from, notes, packed =
        if unsat then
          ( Cold,
            rw.Rewrite.notes @ [ "query is unsatisfiable; nothing was mined" ],
            Packed.finish (Packed.packer [||] [||]) )
        else begin
          let valid_s, s_cached, s_note =
            resolve_side t ~deadline ~ctx ~epoch ~side:"S" (Side_cache.side ctx q `S) io
              counters checks
          in
          let valid_t, t_cached, t_note =
            resolve_side t ~deadline ~ctx ~epoch ~side:"T" (Side_cache.side ctx q `T) io
              counters checks
          in
          check_deadline deadline;
          let pair_stats, packed =
            Packed.join ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info ~valid_s ~valid_t
              ~two_var:q.Query.two_var
          in
          checks := !checks + pair_stats.Pairs.checks;
          ( (if s_cached && t_cached then Subsumed else Cold),
            rw.Rewrite.notes @ List.filter_map Fun.id [ s_note; t_note ],
            packed )
        end
      in
      let a =
        answer ~t0 ~served_from ~support_counted:(Counters.support_counted counters)
          ~constraint_checks:!checks ~scans:(Io_stats.scans io)
          ~pages_read:(Io_stats.pages_read io) ~notes packed.Packed.pk
      in
      let e = Answer_cache.make ~key ~epoch q ~notes packed in
      locked t (fun () ->
          Answer_cache.insert t.answers t.service_metrics ~current:t.epoch e;
          Metrics.record_query t.service_metrics ~latency:a.latency_seconds
            ~support_counted:a.support_counted ~constraint_checks:a.constraint_checks
            ~scans:a.scans ~pages_read:a.pages_read);
      Log.debug (fun m ->
          m "served %s: %d pairs, %d counted (%s)" key a.n_pairs a.support_counted
            (served_from_name a.served_from));
      a

(* ------------------------------------------------------------------ *)
(* graceful degradation *)

(* with [t.lock] held: a cached answer covering the simplified query, with
   the ctx and query that [degraded_answer] joins its sides under once the
   lock is released *)
let degraded_lookup_locked t (rw : Rewrite.outcome) =
  if (not t.service_config.degrade) || rw.Rewrite.s_unsat || rw.Rewrite.t_unsat then None
  else
    let q = rw.Rewrite.query in
    Option.map
      (fun e ->
        Metrics.record_degraded t.service_metrics;
        Metrics.record_reconstruction t.service_metrics;
        (t.service_ctx, q, e))
      (Answer_cache.covering t.answers t.service_ctx ~epoch:t.epoch q)

(* ------------------------------------------------------------------ *)
(* circuit breaker *)

(* The global breaker and each shard's run one state machine; the
   functions below take [t.lock] as held.  [trip] opens a breaker for the
   cooldown. *)
let trip t b = b.state <- Open (max 1 t.service_config.breaker_cooldown)

(* a success closes the breaker, in particular a half-open probe *)
let close b =
  b.consec <- 0;
  b.state <- Closed

(* charge one failure: a failure while half-open reopens the breaker, and
   [breaker_threshold] consecutive failures trip it; true when it trips *)
let note_failure t b =
  b.consec <- b.consec + 1;
  let threshold = t.service_config.breaker_threshold in
  let trips =
    threshold > 0 && (b.state = Half_open || (b.state = Closed && b.consec >= threshold))
  in
  if trips then trip t b;
  trips

(* an admission while the breaker is open counts down its cooldown, so it
   half-opens after [breaker_cooldown] admissions; true when it was
   open *)
let count_down b =
  match b.state with
  | Open n ->
      b.state <- (if n <= 1 then Half_open else Open (n - 1));
      true
  | Closed | Half_open -> false

(* with [t.lock] held: charge a failure to the shard owning its error
   page.  Only faults installed on individual shards are attributable:
   with an injector on the whole composite the failure is store-wide, so
   shard breakers stay out of it and only the global breaker reacts. *)
let shard_note_failure_locked t (e : Cfq_error.t) =
  let db = t.service_ctx.Exec.db in
  if Array.length t.shard_health > 0 && Tx_db.faults db = None then
    match e with
    | Cfq_error.Transient_io { page } | Cfq_error.Corrupt_page { page } -> (
        match t.shard_health.(Tx_db.shard_of_page db page) with
        | sh ->
            sh.sh_failures <- sh.sh_failures + 1;
            if note_failure t sh.sh_breaker then sh.sh_trips <- sh.sh_trips + 1
        | exception Invalid_argument _ -> ())
    | Cfq_error.Deadline | Cfq_error.Overload | Cfq_error.Query_crash _
    | Cfq_error.No_live_source ->
        ()

(* ------------------------------------------------------------------ *)
(* retries and the guarded query wrapper *)

(* The jitter is a pure function of (jitter_seed, query, attempt): a fresh
   SplitMix stream keyed by their mix, rather than draws from one shared
   stream whose order would depend on domain scheduling — so a fault-twin
   run sees identical backoff delays at any worker count. *)
let retry_delay t q attempt =
  let key =
    Int64.logxor t.service_config.jitter_seed
      (Int64.add
         (Int64.mul (Int64.of_int (Hashtbl.hash q)) 0x9E3779B97F4A7C15L)
         (Int64.of_int attempt))
  in
  let jitter = Cfq_quest.Splitmix.float (Cfq_quest.Splitmix.create ~seed:key) in
  t.service_config.backoff_base *. (2. ** float_of_int attempt) *. (0.5 +. jitter)

let guarded t ~deadline q () =
  let rec attempt n =
    match execute t ~deadline q with
    | a -> Ok a
    | exception Expired -> Error Deadline_exceeded
    | exception Cfq_error.Error e ->
        let delay = retry_delay t q n in
        let in_budget =
          match deadline with Some d -> Unix.gettimeofday () +. delay < d | None -> true
        in
        if Cfq_error.is_transient e && n < t.service_config.retries && in_budget then begin
          locked t (fun () -> Metrics.record_retry t.service_metrics);
          if delay > 0. then Unix.sleepf delay;
          attempt (n + 1)
        end
        else Error (Fault e)
    | exception e -> Error (Fault (Cfq_error.Query_crash (Printexc.to_string e)))
  in
  let raw = attempt 0 in
  (* settle the raw (pre-degradation) outcome: its metrics and the
     breakers; a failure is served degraded when a cached answer covers
     it *)
  let settle_locked () =
    let m = t.service_metrics in
    match raw with
    | Ok a ->
        close t.breaker;
        (* a cold success proves every shard served its slice; a
           cache-served answer proves nothing about the shards *)
        if a.served_from = Cold then Array.iter (fun sh -> close sh.sh_breaker) t.shard_health;
        None
    | Error err ->
        (match err with
        | Fault e ->
            Metrics.record_fault m e;
            Metrics.record_failure m;
            shard_note_failure_locked t e
        | Deadline_exceeded ->
            Metrics.record_deadline_expired m;
            Metrics.record_query m ~latency:0. (* not meaningfully attributable *)
              ~support_counted:0 ~constraint_checks:0 ~scans:0 ~pages_read:0
        | Rejected | Overloaded | Failed _ -> ());
        if note_failure t t.breaker then Metrics.record_breaker_trip m;
        degraded_lookup_locked t (Rewrite.simplify q)
  in
  (* with the breakers off, a success has nothing to settle *)
  match
    if t.service_config.breaker_threshold <= 0 && Result.is_ok raw then None
    else locked t settle_locked
  with
  | Some d -> Ok (degraded_answer d)
  | None -> raw

(* ------------------------------------------------------------------ *)
(* admission *)

let absolute_deadline t deadline =
  match (deadline, t.service_config.default_deadline) with
  | Some d, _ | None, Some d -> Some (Unix.gettimeofday () +. d)
  | None, None -> None

(* with [t.lock] held: an admission arriving while some breaker is open
   is served from the caches alone, an answer-cache hit or a degraded
   answer, or shed *)
let open_lookup_locked t (q : Query.t) =
  let rw = Rewrite.simplify q in
  match
    Answer_cache.lookup t.answers ~epoch:t.epoch
      (Fingerprint.query_key t.service_ctx rw.Rewrite.query)
  with
  | Answer_cache.Hit e ->
      Metrics.record_answer_hit t.service_metrics;
      record_hit_locked t ~latency:0.;
      `Hit e
  | Answer_cache.Stale _ | Answer_cache.Miss -> (
      match degraded_lookup_locked t rw with
      | Some d -> `Degrade d
      | None ->
          Metrics.record_shed t.service_metrics;
          `Shed)

(* admission under the breakers.  Every admission while the global breaker
   is open counts toward its cooldown, served from the caches or shed
   alike.  Past it, an admitted query fans over every shard, so one open
   shard breaker likewise serves it from the caches while that shard cools
   down; a half-open breaker admits the probe. *)
let breaker_admit t (q : Query.t) =
  if t.service_config.breaker_threshold <= 0 then `Admit
  else
    locked t (fun () ->
        if count_down t.breaker then open_lookup_locked t q
        else
          let opened = ref None in
          Array.iteri
            (fun k sh -> if !opened = None && count_down sh.sh_breaker then opened := Some k)
            t.shard_health;
          match !opened with
          | None -> `Admit
          | Some k -> (
              match open_lookup_locked t q with
              | `Shed ->
                  t.shard_health.(k).sh_shed <- t.shard_health.(k).sh_shed + 1;
                  `Shed
              | (`Hit _ | `Degrade _) as served -> served))

let submit_abs t ~deadline q =
  match breaker_admit t q with
  | `Hit e -> Ok (Immediate (Ok (hit_answer e)))
  | `Degrade d -> Ok (Immediate (Ok (degraded_answer d)))
  | `Shed -> Error Overloaded
  | `Admit -> (
      locked t (fun () ->
          Metrics.observe_queue_depth t.service_metrics (Pool.queue_depth t.pool);
          Array.iter
            (fun sh -> sh.sh_admissions <- sh.sh_admissions + 1)
            t.shard_health);
      match Pool.submit t.pool (guarded t ~deadline q) with
      | Some p ->
          locked t (fun () -> t.consec_rejections <- 0);
          Ok (Pooled p)
      | None ->
          locked t (fun () ->
              Metrics.record_rejected t.service_metrics;
              t.consec_rejections <- t.consec_rejections + 1;
              if
                t.service_config.breaker_threshold > 0
                && t.breaker.state = Closed
                && t.consec_rejections >= t.service_config.breaker_threshold
              then begin
                Metrics.record_breaker_trip t.service_metrics;
                trip t t.breaker;
                t.consec_rejections <- 0
              end);
          Error Rejected
      | exception Cfq_error.Error Cfq_error.Overload ->
          (* pool already shut down: report Rejected so [run] still serves
             the caller inline *)
          locked t (fun () -> Metrics.record_rejected t.service_metrics);
          Error Rejected)

let submit t ?deadline q = submit_abs t ~deadline:(absolute_deadline t deadline) q

let await = function Pooled p -> Pool.await p | Immediate r -> r

let run t ?deadline q =
  (* the deadline is fixed once at admission, so the queue-full fallback
     below runs under the same budget the pooled path would have had *)
  let deadline = absolute_deadline t deadline in
  match submit_abs t ~deadline q with
  | Ok ticket -> await ticket
  | Error Rejected ->
      (* sync caller: execute inline rather than bouncing *)
      locked t (fun () -> Metrics.record_inline_run t.service_metrics);
      guarded t ~deadline q ()
  | Error e -> Error e

let run_many t ?deadline qs =
  (* submit everything, awaiting the oldest ticket whenever admission is
     refused, so arbitrarily long batches respect the bounded queue *)
  let pending = Queue.create () (* awaits in submission order *) in
  let submit_one q =
    let rec try_submit () =
      match submit t ?deadline q with
      | Ok ticket ->
          let r = lazy (await ticket) in
          Queue.add r pending;
          r
      | Error Rejected when not (Queue.is_empty pending) ->
          ignore (Lazy.force (Queue.take pending) : (answer, error) result);
          try_submit ()
      | Error e -> Lazy.from_val (Error e)
    in
    try_submit ()
  in
  List.map Lazy.force (List.map submit_one qs)

let breaker_name = function
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let metrics t =
  locked t (fun () ->
      let shard_ios = Tx_db.shard_io t.service_ctx.Exec.db in
      let shards =
        List.mapi
          (fun k sh ->
            let io f = if k < Array.length shard_ios then f shard_ios.(k) else 0 in
            {
              Metrics.shard = k;
              shard_admissions = sh.sh_admissions;
              shard_failures = sh.sh_failures;
              shard_trips = sh.sh_trips;
              shard_shed = sh.sh_shed;
              shard_breaker = breaker_name sh.sh_breaker.state;
              shard_scans = io Io_stats.scans;
              shard_pages_read = io Io_stats.pages_read;
              shard_failovers = io Io_stats.failovers;
            })
          (Array.to_list t.shard_health)
      in
      let failovers =
        Array.fold_left (fun a io -> a + Io_stats.failovers io) 0 shard_ios
      in
      Metrics.snapshot t.service_metrics ~shards ~failovers
        ~answer_entries:(Lru.length t.answers)
        ~answer_bytes:(Lru.weight t.answers)
        ~side_entries:(Lru.length t.sides)
        ~side_bytes:(Lru.weight t.sides)
        ~evictions:(Lru.evictions t.answers + Lru.evictions t.sides)
        ())

let metrics_table t = Metrics.table (metrics t)

let cache_clear t =
  locked t (fun () ->
      Lru.clear t.answers;
      Lru.clear t.sides)

let cache_drop_sides t = locked t (fun () -> Lru.clear t.sides)

let shutdown t = Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* live ingestion: epoch-tagged incremental maintenance across seals *)

type live = {
  lv_epoch : int;
  lv_sealed : int;
  lv_sides_promoted : int;
  lv_sides_evicted : int;
  lv_answers_promoted : int;
  lv_answers_evicted : int;
  lv_recounted : int;
  lv_old_scans : int;
  lv_scans : int;
  lv_pages_read : int;
  lv_pass_counts : Counting.pass_counts;
}

let live_to_string lv =
  Printf.sprintf
    "epoch %d: sealed %d transactions; %d sides promoted, %d evicted; %d answers carried to \
     their next lookup, %d dropped; %d candidates recounted (%d old-db scans, %d maintenance \
     scans, %d pages; recount passes %s)"
    lv.lv_epoch lv.lv_sealed lv.lv_sides_promoted lv.lv_sides_evicted lv.lv_answers_promoted
    lv.lv_answers_evicted lv.lv_recounted lv.lv_old_scans lv.lv_scans lv.lv_pages_read
    (Counting.describe_counts lv.lv_pass_counts)

let attach_source t src =
  locked t (fun () ->
      t.live_source <- Some src;
      t.epoch <- Cfq_live.Source.epoch src)

let live_source t = t.live_source

let no_source () = Cfq_error.raise_error Cfq_error.No_live_source

let ingest t items =
  match t.live_source with
  | Some src -> Cfq_live.Source.append_tx src items
  | None -> no_source ()

(* the maintenance pass for one seal.  One shared FUP pass promotes every
   stale side: it scans the resident delta twin once, plus at most one
   old-database scan for the seeded candidates of all sides.  Cached
   answers are not touched here: the seal re-keyed them, and each is
   brought up to date by a delta join on its next lookup
   ([promote_answer]).  Inserts are guarded by the epoch: if another seal
   raced us, our results are stale and the final purge removes them. *)
let maintain t ~old_ctx ~new_epoch ~(delta : Cfq_live.Delta.t) ~maint_io ~stale
    ~answers_carried ~answers_dropped () =
  let sides_promoted = ref 0 and sides_evicted = ref 0 in
  (* one Level_stats per seal: the shared FUP pass's rows land here, so its
     per-level cost is observable alongside the Metrics counters *)
  let lstats = Level_stats.create () in
  let universe =
    max
      (Item_info.universe_size old_ctx.Exec.s_info)
      (Item_info.universe_size old_ctx.Exec.t_info)
  in
  (* the threshold a promoted side must be exact at to answer every
     fraction it answered before *)
  let union_minsup e =
    Incremental.promoted_minsup ~old_minsup:(Side_cache.spec e).Side_cache.minsup
      ~base_txs:delta.Cfq_live.Delta.base_txs ~union_txs:(Cfq_live.Delta.union_txs delta)
  in
  let session = Counting.create_session t.service_config.kernel in
  let results, recounted, old_scans =
    (* a condensed entry is rebuilt first: FUP delta-counts the full
       collection (reconstructed from its closed sets), and each promoted
       result is re-closed below before re-insertion.  The old-database
       recount runs on the service's kernel and mining domains. *)
    match
      Incremental.update_abs ~par:t.mine_par ~session
        ~stats:lstats ~old_db:old_ctx.Exec.db ~delta:delta.Cfq_live.Delta.twin maint_io
        ~universe_size:universe
        (List.map
           (fun e ->
             let spec = Side_cache.spec e in
             {
               Incremental.old_frequent = side_frequent t e;
               old_minsup = spec.Side_cache.minsup;
               union_minsup = union_minsup e;
               max_level = spec.Side_cache.max_level;
             })
           stale)
    with
    | { Incremental.frequent; old_scans; counted_against_old } ->
        (frequent, counted_against_old, old_scans)
    | exception e -> (List.map (fun _ -> Error e) stale, 0, 0)
  in
  List.iter2
    (fun e result ->
      match result with
      | Error _ ->
          (* a faulted promotion leaves the entry stale; the purge below
             removes it, so the cache still lands on a consistent epoch *)
          incr sides_evicted
      | Ok freq' ->
          let e' =
            Side_cache.promoted e ~epoch:new_epoch ~minsup:(union_minsup e)
              (Condensed.of_frequent freq')
          in
          locked t (fun () ->
              record_condensed_locked t (Side_cache.condensed e');
              if t.epoch = new_epoch then
                if Side_cache.promote t.sides ~stale:e e' then incr sides_promoted
                else incr sides_evicted))
    stale results;
  (* whatever side is still stale — faulted promotions, budget-refused
     inserts, raced seals — goes now: every surviving side is at the live
     epoch.  Stale answers stay: a lookup promotes them or drops them. *)
  locked t (fun () ->
      Side_cache.purge t.sides ~epoch:t.epoch;
      Metrics.record_maintenance t.service_metrics ~sides_promoted:!sides_promoted
        ~sides_evicted:!sides_evicted ~recounted ~old_scans
        ~scans:(Io_stats.scans maint_io)
        ~pages_read:(Io_stats.pages_read maint_io));
  let lv =
    {
      lv_epoch = new_epoch;
      lv_sealed = delta.Cfq_live.Delta.delta_txs;
      lv_sides_promoted = !sides_promoted;
      lv_sides_evicted = !sides_evicted;
      lv_answers_promoted = answers_carried;
      lv_answers_evicted = answers_dropped;
      lv_recounted = recounted;
      lv_old_scans = old_scans;
      lv_scans = Io_stats.scans maint_io;
      lv_pages_read = Io_stats.pages_read maint_io;
      lv_pass_counts = Counting.pass_counts session;
    }
  in
  Log.debug (fun m -> m "%s@ %a" (live_to_string lv) Level_stats.pp lstats);
  lv

let seal_live t =
  match t.live_source with
  | None -> no_source ()
  | Some src -> (
      let maint_io = Io_stats.create () in
      let old_ctx = locked t (fun () -> t.service_ctx) in
      match Cfq_live.Source.seal src maint_io with
      | None -> None
      | Some delta ->
          let new_epoch = Cfq_live.Source.epoch src in
          let new_ctx = { old_ctx with Exec.db = Cfq_live.Source.db src } in
          let stale, (answers_carried, answers_dropped) =
            locked t (fun () ->
                (* swap first: queries admitted from here on run against the
                   new database (cold until promotion catches up — correct,
                   just unwarmed), while in-flight queries finish against
                   the still-readable pre-seal snapshot they captured *)
                t.service_ctx <- new_ctx;
                t.epoch <- new_epoch;
                Metrics.record_seal t.service_metrics ~epoch:new_epoch;
                ( Side_cache.stale t.sides ~epoch:new_epoch,
                  Answer_cache.rekey t.answers new_ctx ))
          in
          (* the pass runs on a worker domain (bounded admission: the pool's
             queue), inline in the caller when the queue is full *)
          Some
            (Pool.run t.pool
               (maintain t ~old_ctx ~new_epoch ~delta ~maint_io ~stale
                  ~answers_carried ~answers_dropped)))

let ingest_file t fimi =
  match t.live_source with
  | None -> no_source ()
  | Some src -> (
      match Result.map (fun n -> (n, seal_live t)) (Cfq_live.Source.append_file src fimi) with
      | r -> r
      | exception Cfq_error.Error e -> Error (Cfq_error.to_string e))
