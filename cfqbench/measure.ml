(* One run of one workload: set-up, the timed phase, the traced phase and
   layer probes when asked, the oracle, and the metrics of the catalogue. *)

open Cfq_txdb
open Cfq_mining
open Cfq_core
open Cfq_service
module Store = Cfq_store.Store
module W = Workload

type config = {
  workload : string;
  seed : int64;
  seconds : float;
  trace : bool;
  json : string option;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** every metric the mode reports *)
  line : (string * float) list;
      (** the result line's metrics: every end-to-end metric, or with
          tracing every layer metric, of the catalogue *)
  record : Json.t;  (** the full result written to [--json] *)
}

let setup_reps = 5
let oracle_one_in = 8

(* Default-strategy executions a traced run makes of the oracle's queries
   when the workload itself answers through the service. *)
let exec_probes = 16

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let median_or_zero = function [] -> 0. | l -> Stats.median l

(* Queries run over the time of the operations measured: in [live] the
   operations include the ingests and seals. *)
let qps (p : W.phase) = float_of_int p.W.queries /. p.W.wall

let ratio a b = if b = 0. then 0. else a /. b
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let fi = float_of_int

(* Time [f] [reps] times in a row and return seconds per call. *)
let per_call reps f =
  let t0 = W.now () in
  for _ = 1 to reps do
    f ()
  done;
  (W.now () -. t0) /. fi reps

let median_time f = median_or_zero (List.init 3 (fun _ -> per_call 1 f))

(* ------------------------------------------------------------------ *)
(* Layer probes: each calls one layer's public function on the run's own
   data, outside the timed phases. *)

type probes = {
  scan_ms : float;
  scan_mem_ms : float;
  pairs_form_ms : float;
  condense_ms : float;
  reconstruct_ms : float;
  fingerprint_us : float;
  entail_us : float;
  store_seal_ms : float list;
  exec : Exec.result list;  (** default-strategy executions of the oracle's queries *)
}

let run_probes (inst : W.instance) twin ~dir ~script (phase : W.phase) (checked : W.checked list) =
  let db = inst.db () in
  let scan db () = Tx_db.iter_scan db (Io_stats.create ()) ignore in
  let twin_db = twin (Tx_db.size db) in
  let refs = List.map (fun c -> (c.W.rec_.W.query, c.W.reference)) checked in
  let pairs_form_ms =
    List.map
      (fun ((q : Query.t), (r : Exec.result)) ->
        1000.
        *. per_call 1 (fun () ->
               ignore
                 (Pairs.form ~s_info:inst.info ~t_info:inst.info ~valid_s:r.Exec.s.Exec.valid
                    ~valid_t:r.Exec.t.Exec.valid ~two_var:q.Query.two_var ()
                   : Pairs.stats)))
      refs
  in
  let sides = List.concat_map (fun (_, r) -> [ r.Exec.s.Exec.frequent; r.Exec.t.Exec.frequent ]) refs in
  let condense_ms =
    List.map (fun f -> 1000. *. per_call 1 (fun () -> ignore (Condensed.of_frequent f : Condensed.t))) sides
  in
  (* at these supports the closed form is seldom smaller, so the default
     keeps collections raw; reconstruction is timed on the forced closed
     form *)
  let reconstruct_ms =
    List.map
      (fun f ->
        let c = Condensed.of_frequent ~force:true f in
        1000. *. per_call 1 (fun () -> ignore (Condensed.to_frequent c : Frequent.t)))
      sides
  in
  let queries = List.map (fun r -> r.W.query) phase.W.first in
  let ctx = Exec.context db inst.info in
  let fingerprint_us =
    List.map
      (fun q ->
        let q = (Rewrite.simplify q).Rewrite.query in
        1e6 *. per_call 50 (fun () -> ignore (Fingerprint.query_key ctx q : string)))
      queries
  in
  let entail_us =
    let rec consecutive = function a :: (b :: _ as rest) -> (a, b) :: consecutive rest | _ -> [] in
    List.map
      (fun ((a : Query.t), (b : Query.t)) ->
        1e6
        *. per_call 200 (fun () ->
               ignore
                 (Entail.subsumes ~cached:a.Query.s_constraints ~requested:b.Query.s_constraints
                   : bool)))
      (consecutive queries)
  in
  (* the storage half of a live seal: the same batches sealed into a twin
     store that no service maintains *)
  let store_seal_ms =
    let batches = List.filter_map (function W.Ingest b -> Some b | _ -> None) script in
    if batches = [] then []
    else begin
      let path = Filename.concat dir "twin.cfqdb" in
      let base = Array.length inst.sets - Array.fold_left (fun a b -> a + Array.length b) 0 (Array.of_list batches) in
      Store.build path (Array.sub inst.sets 0 base);
      let st = Store.open_ path in
      let times =
        List.map
          (fun b ->
            Array.iter (Store.append_tx st) b;
            1000. *. per_call 1 (fun () -> ignore (Store.seal st : int)))
          batches
      in
      Store.close st;
      times
    end
  in
  let exec =
    if List.exists (fun r -> match r.W.result with Ok { W.exec = Some _; _ } -> true | _ -> false) phase.W.first
    then []
    else
      List.filteri (fun i _ -> i < exec_probes) checked
      |> List.map (fun c ->
             Exec.run ~collect_pairs:true (Exec.context (twin c.W.rec_.W.size) inst.info) c.W.rec_.W.query)
  in
  {
    scan_ms = 1000. *. median_time (scan db);
    scan_mem_ms = 1000. *. median_time (scan twin_db);
    pairs_form_ms = median_or_zero pairs_form_ms;
    condense_ms = median_or_zero condense_ms;
    reconstruct_ms = median_or_zero reconstruct_ms;
    fingerprint_us = median_or_zero fingerprint_us;
    entail_us = median_or_zero entail_us;
    store_seal_ms;
    exec;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let end_to_end ~setup_s ~tail_p (p : W.phase) ~items =
  let latencies = Array.of_list p.W.latencies in
  let ms x = 1000. *. x in
  [
    ("setup_s", Stats.median setup_s);
    ("query_p50_ms", ms (Stats.percentile latencies 50.));
    ("query_tail_ms", ms (Stats.percentile latencies (fi tail_p)));
    ("queries_per_s", qps p);
    ("peak_rss_mb", p.W.rss_mb);
    ("failed_frac", fi p.W.failed /. fi p.W.queries);
  ]
  @ (if p.W.seal_s = [] then [] else [ ("seal_p50_ms", ms (Stats.median p.W.seal_s)) ])
  @ (if p.W.ingested = 0 then [] else [ ("ingest_tx_per_s", fi p.W.ingested /. p.W.ingest_s) ])
  @ if p.W.disk_after = 0 then [] else [ ("disk_bytes_per_item", fi p.W.disk_after /. fi items) ]

let layers ~sharded ~setup_wall ~setup_spans (p : W.phase) ~traced ~spans (pr : probes) =
  let first_ok =
    List.filter_map (fun r -> match r.W.result with Ok o -> Some o | Error _ -> None) p.W.first
  in
  let n_first = fi (List.length p.W.first) in
  let round_exec = List.filter_map (fun o -> o.W.exec) first_ok in
  let exec = if round_exec <> [] then round_exec else pr.exec in
  let answers = List.filter_map (fun o -> o.W.answer) first_ok in
  let b = p.W.before and a = p.W.after in
  let svc f = match (a.W.svc, b.W.svc) with Some a, Some b -> fi (f a - f b) | _ -> 0. in
  let level_rows = List.concat_map (fun r -> r.Exec.s.Exec.levels @ r.Exec.t.Exec.levels) exec in
  (* level rows name their kernel, "+"-joined when the families of one
     pass used several; the service counts its cold mines' passes itself *)
  let passes kernel metric =
    let rows =
      List.filter
        (fun row -> List.mem kernel (String.split_on_char '+' row.Level_stats.kernel))
        level_rows
    in
    fi (List.length rows) +. svc metric
  in
  let io f = List.fold_left (fun acc r -> acc + f r.Exec.io) 0 round_exec in
  let pair_checks = sum (fun r -> fi r.Exec.pair_stats.Pairs.checks) exec in
  let pairs_out = sum (fun r -> fi r.Exec.pair_stats.Pairs.n_pairs) exec in
  let joins m = fi (List.length (List.filter (fun r -> r.Exec.pair_stats.Pairs.join = m) exec)) in
  let served s = fi (List.length (List.filter (fun o -> o.W.served = Some s) first_ok)) in
  let path_time name = ratio (Option.value ~default:0. (List.assoc_opt name p.W.path_s)) p.W.wall in
  let setup_span name =
    ratio (sum (fun s -> if s.Trace.name = name then Trace.duration s else 0.) setup_spans) setup_wall
  in
  let self = Trace.self_times spans in
  let self_frac name = ratio (Option.value ~default:0. (List.assoc_opt name self)) traced.W.elapsed in
  let shard_pages = Array.map2 ( - ) a.W.shard_pages b.W.shard_pages in
  let n_shards = Array.length shard_pages in
  let pool_hits = fi (a.W.pool_hits - b.W.pool_hits) in
  let pool_misses = fi (a.W.pool_misses - b.W.pool_misses) in
  let seals f = fi (List.fold_left (fun acc lv -> acc + f lv) 0 p.W.seals) in
  let cache_bytes =
    match a.W.svc with Some m -> fi (m.Metrics.answer_bytes + m.Metrics.side_bytes) | None -> 0.
  in
  [
    ("cfq.parse_us", 1e6 *. Stats.median p.W.parse_s);
    ("cfq.exec_mining_ms", 1000. *. median_or_zero (List.map (fun r -> r.Exec.mining_seconds) exec));
    ("cfq.exec_pairs_ms", 1000. *. median_or_zero (List.map (fun r -> r.Exec.pair_seconds) exec));
    ("cfq.pair_checks", pair_checks);
    ("cfq.pairs_out", pairs_out);
    ("cfq.join_hash", joins Pairs.Hash_join);
    ("cfq.join_sort", joins Pairs.Sort_join);
    ("cfq.join_nested", joins Pairs.Nested_loop);
    ("cfq.pairs_form_ms", pr.pairs_form_ms);
    ("cfq.parse_self_frac", self_frac "cfq.parse");
    ("cfq.exec_self_frac", self_frac "cfq.exec");
    ( "mining.support_counted",
      sum (fun r -> fi (Exec.total_counted r)) round_exec
      +. sum (fun a -> fi a.Service.support_counted) answers );
    ( "mining.constraint_checks",
      sum (fun r -> fi (Exec.total_checks r)) round_exec
      +. sum (fun a -> fi a.Service.constraint_checks) answers );
    ( "mining.frequent_per_counted",
      ratio
        (sum (fun row -> fi row.Level_stats.frequent) level_rows)
        (sum (fun row -> fi row.Level_stats.counted) level_rows) );
    ("mining.passes_trie", passes "trie" (fun m -> m.Metrics.kernel_trie_passes));
    ("mining.passes_direct2", passes "direct2" (fun m -> m.Metrics.kernel_direct2_passes));
    ("mining.passes_vertical", passes "vertical" (fun m -> m.Metrics.kernel_vertical_passes));
    ("mining.projected_scans", svc (fun m -> m.Metrics.kernel_projected_scans));
    ("mining.condense_ms", pr.condense_ms);
    ("mining.reconstruct_ms", pr.reconstruct_ms);
    ("txdb.scans", fi (io Io_stats.scans) +. sum (fun a -> fi a.Service.scans) answers);
    ("txdb.pages_read", fi (io Io_stats.pages_read) +. sum (fun a -> fi a.Service.pages_read) answers);
    ("txdb.tuples_read", fi (io Io_stats.tuples_read));
    ("txdb.scan_ms", pr.scan_ms);
    ("txdb.scan_mem_ms", pr.scan_mem_ms);
    ("store.pool_hits", pool_hits);
    ("store.pool_misses", pool_misses);
    ("store.pool_evictions", fi (a.W.pool_evictions - b.W.pool_evictions));
    ("store.pool_hit_frac", ratio pool_hits (pool_hits +. pool_misses));
    ("store.wal_appends", fi (a.W.wal_appends - b.W.wal_appends));
    ("store.wal_fsyncs", fi (a.W.wal_fsyncs - b.W.wal_fsyncs));
    ("store.bytes_written_per_tx", ratio (fi (p.W.disk_after - p.W.disk_before)) (fi p.W.ingested));
    ("store.build_frac", setup_span "store.build");
    ("store.open_frac", setup_span "store.open");
    ( "shard.pages_skew",
      if n_shards = 0 then 0.
      else
        ratio
          (fi (Array.fold_left max 0 shard_pages))
          (fi (Array.fold_left ( + ) 0 shard_pages) /. fi n_shards) );
    ( "shard.pool_misses_max",
      if not sharded then 0.
      else fi (Array.fold_left max 0 (Array.map2 ( - ) a.W.shard_misses b.W.shard_misses)) );
    ("shard.failovers", fi (a.W.failovers - b.W.failovers));
    ("service.answer_hit_frac", ratio (served Service.Answer_cache) n_first);
    ("service.subsumed_frac", ratio (served Service.Subsumed) n_first);
    ("service.cold_frac", ratio (served Service.Cold) n_first);
    ("service.answer_hit_time_frac", path_time "answer_hit");
    ("service.subsumed_time_frac", path_time "subsumed");
    ("service.cold_time_frac", path_time "cold");
    ("service.wait_frac", ratio p.W.svc_wait_s p.W.svc_call_s);
    ("service.evictions", svc (fun m -> m.Metrics.evictions));
    ("service.cache_bytes", cache_bytes);
    ("service.reconstructions", svc (fun m -> m.Metrics.reconstructions));
    ( "service.condense_ratio",
      ratio (svc (fun m -> m.Metrics.cond_raw_bytes)) (svc (fun m -> m.Metrics.cond_bytes)) );
    ("service.fingerprint_us", pr.fingerprint_us);
    ("service.entail_us", pr.entail_us);
    ("service.run_self_frac", self_frac "service.run");
    ("service.create_frac", setup_span "service.create");
    ("live.ingest_self_frac", self_frac "live.ingest");
    ("live.seal_self_frac", self_frac "live.seal");
    ( "live.store_seal_frac",
      if pr.store_seal_ms = [] then 0.
      else ratio (Stats.median pr.store_seal_ms) (1000. *. Stats.median p.W.seal_s) );
    ("live.sides_promoted", seals (fun lv -> lv.Service.lv_sides_promoted));
    ("live.answers_promoted", seals (fun lv -> lv.Service.lv_answers_promoted));
    ("live.recounted", seals (fun lv -> lv.Service.lv_recounted));
    ("live.old_scans", seals (fun lv -> lv.Service.lv_old_scans));
    ("live.maint_pages", seals (fun lv -> lv.Service.lv_pages_read));
    ("quest.generate_frac", setup_span "quest.generate");
    ("gc.minor_mwords_per_query", (a.W.minor_words -. b.W.minor_words) /. 1e6 /. n_first);
    ("gc.major_collections", fi (a.W.major_collections - b.W.major_collections));
    ("trace.query_self_frac", self_frac "query");
    ("trace.coverage_frac", ratio (Trace.top_level_time spans) traced.W.elapsed);
    ("trace.overhead_frac", (qps p /. qps traced) -. 1.);
  ]

(* ------------------------------------------------------------------ *)
(* The run *)

let metric_json values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let unit = match Catalog.find name with Some d -> d.Catalog.unit | None -> "" in
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       values)

(* The catalogue's metrics [defs] in its order, each with its value; a
   metric the run did not compute is an error, not a silent gap. *)
let require defs values =
  List.map
    (fun d ->
      match List.assoc_opt d.Catalog.name values with
      | Some v -> (d.Catalog.name, v)
      | None -> failwith ("metric not computed: " ^ d.Catalog.name))
    defs

let run cfg =
  let dir = Printf.sprintf ".cfqbench/%s-%d" cfg.workload (Unix.getpid ()) in
  if not (Sys.file_exists ".cfqbench") then Sys.mkdir ".cfqbench" 0o755;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Sys.rmdir ".cfqbench" with Sys_error _ -> ())
    (fun () ->
      let spec =
        match W.spec cfg.workload ~seed:cfg.seed ~dir with
        | Some s -> s
        | None -> invalid_arg ("unknown workload " ^ cfg.workload)
      in
      let timed_setup () =
        let t0 = W.now () in
        let inst = spec.W.setup () in
        (inst, W.now () -. t0)
      in
      (* The first set-up is the one measured.  The others, which only
         time set-up, come after everything else: made first, they more
         than tripled adhoc's peak resident set. *)
      Trace.reset ();
      Trace.enabled := cfg.trace;
      let inst, setup_wall = timed_setup () in
      let setup_spans = Trace.recorded () in
      Trace.enabled := false;
      let script = spec.W.script inst in
      let per_round = List.length (List.filter (function W.Query _ -> true | _ -> false) script) in
      let tail_p = Option.value ~default:50 (Stats.tail_percentile per_round) in
      let sample =
        let rng = Gen.stream cfg.seed 6 in
        Array.init (per_round + 1) (fun _ -> Cfq_quest.Splitmix.int rng oracle_one_in = 0)
      in
      let keep qid (o : W.outcome) = sample.(qid) || o.W.served = Some Service.Cold in
      let clock = ref (W.now ()) and phase_s = ref [ ("setup", setup_wall) ] in
      let lap name =
        let t = W.now () in
        phase_s := (name, t -. !clock) :: !phase_s;
        clock := t
      in
      (* a traced run splits its time between an untraced and a traced phase *)
      let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
      let untraced = W.timed_phase inst spec script ~seconds ~keep ~first_round:true in
      lap "timed";
      let traced =
        if not cfg.trace then None
        else begin
          Trace.enabled := true;
          let p =
            W.timed_phase inst spec script ~seconds ~keep:(fun _ _ -> false) ~first_round:false
          in
          Trace.enabled := false;
          let n_setup = List.length setup_spans in
          lap "traced";
          Some (p, List.filteri (fun i _ -> i >= n_setup) (Trace.recorded ()))
        end
      in
      let twin = W.twins inst in
      let checked, mismatches = W.oracle inst twin untraced.W.first in
      lap "oracle";
      let probes = Option.map (fun _ -> run_probes inst twin ~dir ~script untraced checked) traced in
      if traced <> None then lap "probes";
      inst.W.close ();
      let setup_s =
        setup_wall
        :: List.init (setup_reps - 1) (fun _ ->
               Gc.full_major ();
               let again, dt = timed_setup () in
               again.W.close ();
               dt)
      in
      lap "setup_again";
      let attempted =
        untraced.W.queries + Option.fold ~none:0 ~some:(fun (p, _) -> p.W.queries) traced
      in
      let failed =
        untraced.W.failed + mismatches + Option.fold ~none:0 ~some:(fun (p, _) -> p.W.failed) traced
      in
      let items = Gen.item_occurrences inst.W.sets in
      let e2e = end_to_end ~setup_s ~tail_p untraced ~items in
      let metrics, defs =
        match (traced, probes) with
        | Some (tp, spans), Some pr ->
            ( layers ~sharded:(inst.W.sharded <> None) ~setup_wall ~setup_spans untraced ~traced:tp
                ~spans pr,
              Catalog.layers )
        | _ -> (e2e, Catalog.end_to_end)
      in
      let line = require defs metrics in
      let sizes = Json.Obj (List.map (fun (k, v) -> (k, Json.Num (fi v))) spec.W.sizes) in
      let record =
        Json.Obj
          ([
             ("workload", Json.Str cfg.workload);
             ("seed", Json.Str (Int64.to_string cfg.seed));
             ("seconds", Json.Num cfg.seconds);
             ("trace", Json.Bool cfg.trace);
             ("sizes", sizes);
             ("rounds", Json.Num (fi untraced.W.rounds));
             ("queries_per_round", Json.Num (fi per_round));
             ("tail_percentile", Json.Num (fi tail_p));
             ("latency_samples", Json.Num (fi (List.length untraced.W.latencies)));
             ( "tail_samples_beyond",
               Json.Num (fi (List.length untraced.W.latencies) *. fi (100 - tail_p) /. 100.) );
             ("oracle_checked", Json.Num (fi (List.length checked)));
             ("phase_s", Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Num v)) !phase_s));
             ("correct", Json.Bool (failed = 0));
             ("attempted", Json.Num (fi attempted));
             ("failed", Json.Num (fi failed));
             ("metrics", metric_json metrics);
           ]
          @
          match traced with
          | None -> []
          | Some (_, spans) ->
              [
                ( "self_time_s",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (Trace.self_times (setup_spans @ spans))) );
                ("spans", Trace.to_json (setup_spans @ spans));
              ])
      in
      { correct = failed = 0; attempted; failed; metrics; line; record })
