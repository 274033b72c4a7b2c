(* Every metric the benchmark reports, with its unit, direction and
   regression bound.

   [End_to_end] metrics are what a user of the system sees; every
   workload reports every one of them, and BENCHMARK.json lists them with
   the same bounds (a test checks that the two agree).  [Extra] metrics
   are end-to-end figures that exist on some workloads only (seal
   latency, ingest rate, bytes on disk) or read 0 on a correct run (the
   failed share).  The result line holds only metrics every workload
   reports and that are never 0, so the extras stay out of it and out of
   BENCHMARK.json; a run records them, and [main.exe compare] applies
   their bounds from here.  [Layer] metrics describe one layer, are
   reported by traced runs, and have no bound.  README.md defines each
   metric and names the end-to-end metric each layer metric should
   move. *)

type kind = End_to_end | Layer | Extra

type def = {
  name : string;
  unit : string;
  better : Stats.better;
  kind : kind;
  bound : float option;  (** share of the parent's median; [None] for layers *)
}

let e2e name unit better bound = { name; unit; better; kind = End_to_end; bound = Some bound }
let extra name unit better bound = { name; unit; better; kind = Extra; bound = Some bound }
let layer name unit better = { name; unit; better; kind = Layer; bound = None }

let all =
  Stats.
    [
      e2e "setup_s" "s" Lower 0.25;
      e2e "query_p50_ms" "ms" Lower 0.25;
      e2e "query_tail_ms" "ms" Lower 0.25;
      e2e "queries_per_s" "1/s" Higher 0.25;
      e2e "peak_rss_mb" "MB" Lower 0.25;
      extra "failed_frac" "ratio" Lower 0.;
      extra "seal_p50_ms" "ms" Lower 0.1;
      extra "ingest_tx_per_s" "tx/s" Higher 0.1;
      extra "disk_bytes_per_item" "B" Lower 0.02;
      (* cfq: parsing, the optimizer-driven executor and the pair join *)
      layer "cfq.parse_us" "us" Lower;
      layer "cfq.exec_mining_ms" "ms" Lower;
      layer "cfq.exec_pairs_ms" "ms" Lower;
      layer "cfq.pair_checks" "count" Lower;
      layer "cfq.pairs_out" "count" Higher;
      layer "cfq.join_hash" "count" Higher;
      layer "cfq.join_sort" "count" Higher;
      layer "cfq.join_nested" "count" Lower;
      layer "cfq.pairs_form_ms" "ms" Lower;
      layer "cfq.parse_self_frac" "ratio" Lower;
      layer "cfq.exec_self_frac" "ratio" Lower;
      (* mining: lattice counting and condensed collections *)
      layer "mining.support_counted" "count" Lower;
      layer "mining.constraint_checks" "count" Lower;
      layer "mining.frequent_per_counted" "ratio" Higher;
      layer "mining.passes_trie" "count" Lower;
      layer "mining.passes_direct2" "count" Lower;
      layer "mining.passes_vertical" "count" Lower;
      layer "mining.projected_scans" "count" Lower;
      layer "mining.condense_ms" "ms" Lower;
      layer "mining.reconstruct_ms" "ms" Lower;
      (* txdb: logical scans *)
      layer "txdb.scans" "count" Lower;
      layer "txdb.pages_read" "count" Lower;
      layer "txdb.tuples_read" "count" Lower;
      layer "txdb.scan_ms" "ms" Lower;
      layer "txdb.scan_mem_ms" "ms" Lower;
      (* store: buffer pool, WAL, segment *)
      layer "store.pool_hits" "count" Higher;
      layer "store.pool_misses" "count" Lower;
      layer "store.pool_evictions" "count" Lower;
      layer "store.pool_hit_frac" "ratio" Higher;
      layer "store.wal_appends" "count" Lower;
      layer "store.wal_fsyncs" "count" Lower;
      layer "store.bytes_written_per_tx" "B" Lower;
      layer "store.build_frac" "ratio" Lower;
      layer "store.open_frac" "ratio" Lower;
      (* shard: count distribution over the shards *)
      layer "shard.pages_skew" "ratio" Lower;
      layer "shard.pool_misses_max" "count" Lower;
      layer "shard.failovers" "count" Lower;
      (* service: answer cache, subsumption, cold mining, queueing *)
      layer "service.answer_hit_frac" "ratio" Higher;
      layer "service.subsumed_frac" "ratio" Higher;
      layer "service.cold_frac" "ratio" Lower;
      layer "service.answer_hit_time_frac" "ratio" Lower;
      layer "service.subsumed_time_frac" "ratio" Lower;
      layer "service.cold_time_frac" "ratio" Lower;
      layer "service.wait_frac" "ratio" Lower;
      layer "service.evictions" "count" Lower;
      layer "service.cache_bytes" "B" Lower;
      layer "service.reconstructions" "count" Lower;
      layer "service.condense_ratio" "ratio" Higher;
      layer "service.fingerprint_us" "us" Lower;
      layer "service.entail_us" "us" Lower;
      layer "service.run_self_frac" "ratio" Lower;
      layer "service.create_frac" "ratio" Lower;
      (* live: ingestion, seals and cache maintenance *)
      layer "live.ingest_self_frac" "ratio" Lower;
      layer "live.seal_self_frac" "ratio" Lower;
      layer "live.store_seal_frac" "ratio" Lower;
      layer "live.sides_promoted" "count" Higher;
      layer "live.answers_promoted" "count" Higher;
      layer "live.recounted" "count" Lower;
      layer "live.old_scans" "count" Lower;
      layer "live.maint_pages" "count" Lower;
      (* quest: input generation inside set-up *)
      layer "quest.generate_frac" "ratio" Lower;
      (* runtime and tracing *)
      layer "gc.minor_mwords_per_query" "Mword" Lower;
      layer "gc.major_collections" "count" Lower;
      layer "trace.query_self_frac" "ratio" Lower;
      layer "trace.coverage_frac" "ratio" Higher;
      layer "trace.overhead_frac" "ratio" Lower;
    ]

let end_to_end = List.filter (fun d -> d.kind = End_to_end) all
let layers = List.filter (fun d -> d.kind = Layer) all
let extras = List.filter (fun d -> d.kind = Extra) all
let find name = List.find_opt (fun d -> d.name = name) all
