type shard_row = {
  shard : int;
  shard_admissions : int;
  shard_failures : int;
  shard_trips : int;
  shard_shed : int;
  shard_breaker : string;
  shard_scans : int;
  shard_pages_read : int;
  shard_failovers : int;
}

type snapshot = {
  queries : int;
  answer_hits : int;
  subsumption_hits : int;
  sides_mined : int;
  sides_relaxed : int;
  answer_misses : int;
  deadline_expired : int;
  rejected : int;
  failures : int;
  support_counted : int;
  constraint_checks : int;
  scans : int;
  pages_read : int;
  total_latency : float;
  max_latency : float;
  queue_high_water : int;
  retries : int;
  degraded : int;
  breaker_trips : int;
  shed : int;
  inline_runs : int;
  fault_transient : int;
  fault_corrupt : int;
  fault_crash : int;
  kernel_trie_passes : int;
  kernel_direct2_passes : int;
  kernel_vertical_passes : int;
  kernel_projected_scans : int;
  live_epoch : int;
  seals : int;
  sides_promoted : int;
  sides_evicted : int;
  answers_promoted : int;
  answers_evicted : int;
  maint_recounted : int;
  maint_old_scans : int;
  maint_scans : int;
  maint_pages_read : int;
  cond_raw_bytes : int;
  cond_bytes : int;
  cond_inserts : int;
  reconstructions : int;
  answer_entries : int;
  answer_bytes : int;
  side_entries : int;
  side_bytes : int;
  evictions : int;
  failovers : int;
  shards : shard_row list;
}

type t = {
  mutable queries : int;
  mutable answer_hits : int;
  mutable answer_misses : int;
  mutable subsumption_hits : int;
  mutable sides_mined : int;
  mutable sides_relaxed : int;
  mutable deadline_expired : int;
  mutable rejected : int;
  mutable failures : int;
  mutable support_counted : int;
  mutable constraint_checks : int;
  mutable scans : int;
  mutable pages_read : int;
  mutable total_latency : float;
  mutable max_latency : float;
  mutable queue_high_water : int;
  mutable retries : int;
  mutable degraded : int;
  mutable breaker_trips : int;
  mutable shed : int;
  mutable inline_runs : int;
  mutable fault_transient : int;
  mutable fault_corrupt : int;
  mutable fault_crash : int;
  mutable kernel_trie_passes : int;
  mutable kernel_direct2_passes : int;
  mutable live_epoch : int;
  mutable seals : int;
  mutable sides_promoted : int;
  mutable sides_evicted : int;
  mutable answers_promoted : int;
  mutable answers_evicted : int;
  mutable maint_recounted : int;
  mutable maint_old_scans : int;
  mutable maint_scans : int;
  mutable maint_pages_read : int;
  mutable cond_raw_bytes : int;
  mutable cond_bytes : int;
  mutable cond_inserts : int;
  mutable reconstructions : int;
}

let create () =
  {
    queries = 0;
    answer_hits = 0;
    answer_misses = 0;
    subsumption_hits = 0;
    sides_mined = 0;
    sides_relaxed = 0;
    deadline_expired = 0;
    rejected = 0;
    failures = 0;
    support_counted = 0;
    constraint_checks = 0;
    scans = 0;
    pages_read = 0;
    total_latency = 0.;
    max_latency = 0.;
    queue_high_water = 0;
    retries = 0;
    degraded = 0;
    breaker_trips = 0;
    shed = 0;
    inline_runs = 0;
    fault_transient = 0;
    fault_corrupt = 0;
    fault_crash = 0;
    kernel_trie_passes = 0;
    kernel_direct2_passes = 0;
    live_epoch = 0;
    seals = 0;
    sides_promoted = 0;
    sides_evicted = 0;
    answers_promoted = 0;
    answers_evicted = 0;
    maint_recounted = 0;
    maint_old_scans = 0;
    maint_scans = 0;
    maint_pages_read = 0;
    cond_raw_bytes = 0;
    cond_bytes = 0;
    cond_inserts = 0;
    reconstructions = 0;
  }

let record_query t ~latency ~support_counted ~constraint_checks ~scans ~pages_read =
  t.queries <- t.queries + 1;
  t.support_counted <- t.support_counted + support_counted;
  t.constraint_checks <- t.constraint_checks + constraint_checks;
  t.scans <- t.scans + scans;
  t.pages_read <- t.pages_read + pages_read;
  t.total_latency <- t.total_latency +. latency;
  if latency > t.max_latency then t.max_latency <- latency

let record_answer_hit t = t.answer_hits <- t.answer_hits + 1
let record_answer_miss t = t.answer_misses <- t.answer_misses + 1
let record_subsumption_hit t = t.subsumption_hits <- t.subsumption_hits + 1
let record_side_mined t = t.sides_mined <- t.sides_mined + 1
let record_side_relaxed t = t.sides_relaxed <- t.sides_relaxed + 1
let record_deadline_expired t = t.deadline_expired <- t.deadline_expired + 1
let record_rejected t = t.rejected <- t.rejected + 1
let record_failure t = t.failures <- t.failures + 1

let record_retry t = t.retries <- t.retries + 1
let record_degraded t = t.degraded <- t.degraded + 1
let record_breaker_trip t = t.breaker_trips <- t.breaker_trips + 1
let record_shed t = t.shed <- t.shed + 1
let record_inline_run t = t.inline_runs <- t.inline_runs + 1

let record_fault t (e : Cfq_txdb.Cfq_error.t) =
  match e with
  | Transient_io _ -> t.fault_transient <- t.fault_transient + 1
  | Corrupt_page _ -> t.fault_corrupt <- t.fault_corrupt + 1
  | Query_crash _ -> t.fault_crash <- t.fault_crash + 1
  | Deadline | Overload | No_live_source -> ()

let record_kernel_passes t ~trie ~direct2 =
  t.kernel_trie_passes <- t.kernel_trie_passes + trie;
  t.kernel_direct2_passes <- t.kernel_direct2_passes + direct2

(* one seal's maintenance pass: the epoch is a gauge, everything else
   accumulates so the warm-across-seals cost stays visible in aggregate *)
let record_seal t ~epoch =
  t.seals <- t.seals + 1;
  t.live_epoch <- epoch

let record_maintenance t ~sides_promoted ~sides_evicted ~recounted ~old_scans ~scans
    ~pages_read =
  t.sides_promoted <- t.sides_promoted + sides_promoted;
  t.sides_evicted <- t.sides_evicted + sides_evicted;
  t.maint_recounted <- t.maint_recounted + recounted;
  t.maint_old_scans <- t.maint_old_scans + old_scans;
  t.maint_scans <- t.maint_scans + scans;
  t.maint_pages_read <- t.maint_pages_read + pages_read

(* a lookup found an answer cached at an older epoch and brought it up to
   date ([promoted]) or dropped it *)
let record_answer_promoted t = t.answers_promoted <- t.answers_promoted + 1
let record_answer_evicted t = t.answers_evicted <- t.answers_evicted + 1

(* every cache insert passes through here: raw-equivalent vs stored bytes
   accumulate whether or not condensation fired, so the ratio reflects the
   whole insert stream *)
let record_condensed t ~raw ~stored ~condensed =
  t.cond_raw_bytes <- t.cond_raw_bytes + raw;
  t.cond_bytes <- t.cond_bytes + stored;
  if condensed then t.cond_inserts <- t.cond_inserts + 1

let record_reconstruction t = t.reconstructions <- t.reconstructions + 1

let observe_queue_depth t d =
  if d > t.queue_high_water then t.queue_high_water <- d

let snapshot t ?(shards = []) ?(failovers = 0) ~answer_entries ~answer_bytes
    ~side_entries ~side_bytes ~evictions () : snapshot =
  {
    queries = t.queries;
    answer_hits = t.answer_hits;
    answer_misses = t.answer_misses;
    subsumption_hits = t.subsumption_hits;
    sides_mined = t.sides_mined;
    sides_relaxed = t.sides_relaxed;
    deadline_expired = t.deadline_expired;
    rejected = t.rejected;
    failures = t.failures;
    support_counted = t.support_counted;
    constraint_checks = t.constraint_checks;
    scans = t.scans;
    pages_read = t.pages_read;
    total_latency = t.total_latency;
    max_latency = t.max_latency;
    queue_high_water = t.queue_high_water;
    retries = t.retries;
    degraded = t.degraded;
    breaker_trips = t.breaker_trips;
    shed = t.shed;
    inline_runs = t.inline_runs;
    fault_transient = t.fault_transient;
    fault_corrupt = t.fault_corrupt;
    fault_crash = t.fault_crash;
    kernel_trie_passes = t.kernel_trie_passes;
    kernel_direct2_passes = t.kernel_direct2_passes;
    kernel_vertical_passes = 0;
    kernel_projected_scans = 0;
    live_epoch = t.live_epoch;
    seals = t.seals;
    sides_promoted = t.sides_promoted;
    sides_evicted = t.sides_evicted;
    answers_promoted = t.answers_promoted;
    answers_evicted = t.answers_evicted;
    maint_recounted = t.maint_recounted;
    maint_old_scans = t.maint_old_scans;
    maint_scans = t.maint_scans;
    maint_pages_read = t.maint_pages_read;
    cond_raw_bytes = t.cond_raw_bytes;
    cond_bytes = t.cond_bytes;
    cond_inserts = t.cond_inserts;
    reconstructions = t.reconstructions;
    answer_entries;
    answer_bytes;
    side_entries;
    side_bytes;
    evictions;
    failovers;
    shards;
  }

let table (s : snapshot) =
  let tbl = Cfq_report.Table.create [ "metric"; "value" ] in
  let row k v = Cfq_report.Table.add_row tbl [ k; v ] in
  let int k v = row k (string_of_int v) in
  int "queries served" s.queries;
  int "answer-cache hits" s.answer_hits;
  int "answer-cache misses" s.answer_misses;
  int "subsumption hits (sides)" s.subsumption_hits;
  int "sides mined cold" s.sides_mined;
  int "sides relaxed" s.sides_relaxed;
  int "deadline expired" s.deadline_expired;
  int "rejected (queue full)" s.rejected;
  int "failures" s.failures;
  int "support counted (ccc)" s.support_counted;
  int "constraint checks (ccc)" s.constraint_checks;
  int "db scans" s.scans;
  int "pages read" s.pages_read;
  row "total latency (s)" (Printf.sprintf "%.3f" s.total_latency);
  row "max latency (s)" (Printf.sprintf "%.3f" s.max_latency);
  row "avg latency (s)"
    (if s.queries = 0 then "-"
     else Printf.sprintf "%.4f" (s.total_latency /. float_of_int s.queries));
  int "queue high water" s.queue_high_water;
  int "retries" s.retries;
  int "degraded answers" s.degraded;
  int "breaker trips" s.breaker_trips;
  int "shed (breaker open)" s.shed;
  int "inline runs (queue full)" s.inline_runs;
  int "faults: transient io" s.fault_transient;
  int "faults: corrupt page" s.fault_corrupt;
  int "faults: query crash" s.fault_crash;
  int "kernel passes: trie" s.kernel_trie_passes;
  int "kernel passes: direct2" s.kernel_direct2_passes;
  int "live epoch" s.live_epoch;
  int "seals maintained" s.seals;
  int "live: sides promoted" s.sides_promoted;
  int "live: sides evicted" s.sides_evicted;
  int "live: answers promoted" s.answers_promoted;
  int "live: answers evicted" s.answers_evicted;
  int "live: counted against old" s.maint_recounted;
  int "live: old-db scans" s.maint_old_scans;
  int "live: maintenance scans" s.maint_scans;
  int "live: maintenance pages" s.maint_pages_read;
  int "condensed inserts" s.cond_inserts;
  row "cache raw bytes (inserted)" (Printf.sprintf "%d" s.cond_raw_bytes);
  row "cache condensed bytes (inserted)" (Printf.sprintf "%d" s.cond_bytes);
  row "condensation ratio"
    (if s.cond_bytes = 0 then "-"
     else
       Printf.sprintf "%.2f"
         (float_of_int s.cond_raw_bytes /. float_of_int s.cond_bytes));
  int "reconstructions" s.reconstructions;
  int "answer cache entries" s.answer_entries;
  row "answer cache bytes" (Printf.sprintf "%d" s.answer_bytes);
  int "side cache entries" s.side_entries;
  row "side cache bytes" (Printf.sprintf "%d" s.side_bytes);
  int "evictions" s.evictions;
  int "replica failovers" s.failovers;
  List.iter
    (fun r ->
      row
        (Printf.sprintf "shard %d" r.shard)
        (Printf.sprintf
           "breaker=%s admissions=%d failures=%d trips=%d shed=%d scans=%d pages=%d failovers=%d"
           r.shard_breaker r.shard_admissions r.shard_failures r.shard_trips
           r.shard_shed r.shard_scans r.shard_pages_read r.shard_failovers))
    s.shards;
  tbl
