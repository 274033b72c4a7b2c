(* The sharded subsystem: manifest round-trips and corruption rejection,
   tid-range partitioning that reproduces the global page geometry
   byte-for-byte, count-distribution mining equivalence over a
   shards x kernels x domains grid (qcheck), deterministic fault twins
   with the injector pinned to one shard, per-shard circuit-breaker
   isolation in the service, orphan-free failed builds, and manifest
   self-healing after an out-of-band shard seal. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_core
open Cfq_service
open Cfq_shard

let unit name f = Alcotest.test_case name `Quick f

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cfq_shard_test_%s_%d.cfqdb" name (Unix.getpid ()))

let sets_of_lists ls = Array.of_list (List.map Itemset.of_list ls)

(* a tiny page: 14 items fill it exactly, so small databases span pages *)
let small_pm = Page_model.make ~page_size_bytes:64 ()

let all_txs db =
  List.init (Tx_db.size db) (fun i ->
      let tx = Tx_db.get db i in
      (tx.Transaction.tid, Itemset.to_list tx.Transaction.items))

(* an injector with no active failure modes drives the checksum walk *)
let verify_checksums db =
  Tx_db.set_faults db (Some (Fault.create Fault.default_config));
  let r = Tx_db.verify db in
  Tx_db.set_faults db None;
  r

let fixed_lists =
  List.init 40 (fun i ->
      List.init ((i mod 6) + 1) (fun j -> (i + (3 * j)) mod 9))

(* ------------------------------------------------------------------ *)
(* manifest *)

let manifest_roundtrip () =
  let path = tmp_path "manifest" in
  let m =
    {
      Manifest.generation = 3;
      partition = Manifest.Tid_range;
      universe = 10;
      n_txs = 7;
      n_pages = 2;
      replicas = 2;
      shards =
        [|
          {
            Manifest.s_txs = 4;
            s_pages = 1;
            s_generation = 2;
            s_replicas =
              [|
                { Manifest.r_generation = 2; r_health = Manifest.Healthy };
                { Manifest.r_generation = 1; r_health = Manifest.Stale };
              |];
          };
          {
            Manifest.s_txs = 3;
            s_pages = 1;
            s_generation = 5;
            s_replicas =
              [|
                { Manifest.r_generation = 5; r_health = Manifest.Healthy };
                { Manifest.r_generation = 5; r_health = Manifest.Quarantined };
              |];
          };
        |];
      checksums = [| 0xCAFE; 0xBEEF |];
    }
  in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Manifest.write path m;
  Alcotest.(check bool) "probe accepts" true (Manifest.is_manifest path);
  Alcotest.(check bool) "round-trip" true (Manifest.read path = m);
  (* flip a payload byte: the CRC must reject *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 30 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xFF") 0 1);
  Unix.close fd;
  match Manifest.read path with
  | _ -> Alcotest.fail "corrupt manifest accepted"
  | exception Manifest.Bad_manifest _ -> ()

let plain_segment_is_not_a_manifest () =
  let path = tmp_path "plain" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with _ -> ());
      try Sys.remove (path ^ ".wal") with _ -> ())
  @@ fun () ->
  Cfq_store.Store.build path (sets_of_lists [ [ 1; 2 ]; [ 3 ] ]);
  Alcotest.(check bool) "segment rejected" false (Manifest.is_manifest path);
  Alcotest.(check bool) "missing file rejected" false
    (Manifest.is_manifest (path ^ ".nothere"))

(* ------------------------------------------------------------------ *)
(* partitioner: tid-range shard boundaries sit on page-run starts, so
   the composite reproduces the unsharded page geometry exactly *)

let tid_range_is_io_identical () =
  let sets = sets_of_lists fixed_lists in
  let mono = Tx_db.create ~page_model:small_pm sets in
  List.iter
    (fun shards ->
      let db = Sharded.mem_db ~page_model:small_pm ~shards sets in
      let tag s = Printf.sprintf "%s (shards=%d)" s shards in
      Alcotest.(check int) (tag "size") (Tx_db.size mono) (Tx_db.size db);
      Alcotest.(check int) (tag "pages") (Tx_db.pages mono) (Tx_db.pages db);
      for i = 0 to Tx_db.size mono - 1 do
        Alcotest.(check int) (tag "page_of") (Tx_db.page_of_tx mono i)
          (Tx_db.page_of_tx db i)
      done;
      Alcotest.(check (list (pair int (list int)))) (tag "content")
        (all_txs mono) (all_txs db);
      (match verify_checksums db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (tag "verify") (Cfq_error.to_string e));
      (* logical scan charges agree too *)
      let scan db =
        let io = Io_stats.create () in
        Tx_db.begin_scan db io;
        (Io_stats.scans io, Io_stats.pages_read io)
      in
      Alcotest.(check (pair int int)) (tag "scan charge") (scan mono) (scan db))
    [ 1; 2; 3; 7; 40 ]

let chunk_runs_memoized () =
  let sets = sets_of_lists fixed_lists in
  let db = Tx_db.create ~page_model:small_pm sets in
  Alcotest.(check bool) "chunk runs bounded by pages" true
    (Tx_db.chunk_runs db <= Tx_db.pages db && Tx_db.chunk_runs db > 0);
  let c1 = Tx_db.scan_chunks db ~max_chunks:4 in
  let c2 = Tx_db.scan_chunks db ~max_chunks:4 in
  Alcotest.(check (list (pair int int))) "memoized chunks stable" c1 c2;
  (* chunks cover [0, size) without gaps *)
  let covered =
    List.fold_left
      (fun next (lo, hi) ->
        Alcotest.(check int) "contiguous" next lo;
        hi + 1)
      0 c1
  in
  Alcotest.(check int) "full cover" (Tx_db.size db) covered;
  let sharded = Sharded.mem_db ~page_model:small_pm ~shards:3 sets in
  Alcotest.(check int) "sharded composite exposes the same chunk runs"
    (Tx_db.chunk_runs db) (Tx_db.chunk_runs sharded)

(* ------------------------------------------------------------------ *)
(* count-distribution equivalence: answers, frequent sets with supports,
   ccc, per-level kernel labels and composite I/O charges identical for
   every shards x kernel x domains combination *)

let signature r =
  let pairs =
    Helpers.sorted_pairs
      (List.map
         (fun (s, t) -> (s.Frequent.set, t.Frequent.set))
         r.Exec.pairs)
  in
  let side (sr : Exec.side_report) =
    List.sort compare
      (Array.to_list
         (Array.map
            (fun e -> (Itemset.to_list e.Frequent.set, e.Frequent.support))
            sr.Exec.valid))
  in
  (* the kernel each level ran: a sharded pass labels every level exactly
     as the single-store pass does *)
  let kernels (sr : Exec.side_report) =
    List.map (fun row -> (row.Level_stats.level, row.Level_stats.kernel)) sr.Exec.levels
  in
  ( pairs,
    side r.Exec.s,
    side r.Exec.t,
    Exec.total_counted r,
    Exec.total_checks r,
    kernels r.Exec.s,
    kernels r.Exec.t )

let grid_configs =
  [ (Counting.Trie, 1); (Counting.Trie, 3); (Counting.Direct2, 1); (Counting.Direct2, 3) ]

let qcheck_count_distribution =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 5 7 in
      let* txs = Helpers.gen_db_lists n in
      let* q = Helpers.gen_query in
      return (n, txs, q))
  in
  Helpers.qtest ~count:20 "sharded mining = single-store mining (grid)" gen
    (fun (n, txs, q) ->
      Printf.sprintf "n=%d txs=%d q=%s" n (List.length txs)
        (Query.to_string q))
    (fun (n, txs, q) ->
      let sets = sets_of_lists txs in
      let info = Helpers.small_info n in
      let run db kernel domains =
        let ctx = Exec.context db info in
        let par = Counting.par ~min_rows_per_domain:1 domains in
        match Exec.run_result ~collect_pairs:true ~par ~kernel ctx q with
        | Ok r -> Ok (signature r, (Io_stats.scans r.Exec.io, Io_stats.pages_read r.Exec.io))
        | Error e -> Error (Cfq_error.to_string e)
      in
      List.for_all
        (fun shards ->
          List.for_all
            (fun (kernel, domains) ->
              run (Tx_db.create sets) kernel domains
              = run (Sharded.mem_db ~shards sets) kernel domains)
            grid_configs)
        [ 2; 3; 7 ])

(* ------------------------------------------------------------------ *)
(* fault twins: the same injector pinned to the same shard of two
   identically built composites produces identical outcome sequences *)

let shard_pinned_fault_twin () =
  let sets = sets_of_lists fixed_lists in
  let config =
    { Fault.default_config with Fault.fail_first = 1; corrupt_p = 0.3; max_corrupt = 1 }
  in
  let twin () =
    let db = Sharded.mem_db ~page_model:small_pm ~shards:3 sets in
    let subs = Option.get (Tx_db.shards db) in
    Tx_db.set_faults subs.(1) (Some (Fault.create config));
    db
  in
  let replay db =
    let out = ref [] in
    for _ = 1 to 6 do
      let io = Io_stats.create () in
      let n = ref 0 in
      (match Tx_db.iter_scan db io (fun _ -> incr n) with
      | () -> out := Printf.sprintf "ok:%d" !n :: !out
      | exception Cfq_error.Error e -> out := Cfq_error.to_string e :: !out)
    done;
    List.rev !out
  in
  let a = replay (twin ()) and b = replay (twin ()) in
  Alcotest.(check (list string)) "identical replay" a b;
  (* error pages are in composite coordinates: within shard 1's range *)
  let db = twin () in
  let lo = Tx_db.shard_page_base db 1 and hi = Tx_db.shard_page_base db 2 in
  let rec first_error tries =
    if tries = 0 then None
    else
      let io = Io_stats.create () in
      match Tx_db.iter_scan db io (fun _ -> ()) with
      | () -> first_error (tries - 1)
      | exception
          Cfq_error.Error
            (Cfq_error.Transient_io { page } | Cfq_error.Corrupt_page { page })
        ->
          Some page
  in
  match first_error 8 with
  | None -> Alcotest.fail "pinned injector never fired"
  | Some page ->
      Alcotest.(check bool) "globalized error page in shard 1's range" true
        (page >= lo && page < hi);
      Alcotest.(check int) "page attributed to shard 1" 1
        (Tx_db.shard_of_page db page)

let shard_pinned_mining_twin () =
  let sets = sets_of_lists fixed_lists in
  let info = Helpers.small_info 9 in
  let q = Query.make ~s_minsup:0.1 ~t_minsup:0.1 () in
  let config = { Fault.default_config with Fault.transient_p = 0.05 } in
  let outcome () =
    let db = Sharded.mem_db ~page_model:small_pm ~shards:3 sets in
    let subs = Option.get (Tx_db.shards db) in
    Tx_db.set_faults subs.(2) (Some (Fault.create config));
    let par = Counting.par ~min_rows_per_domain:1 3 in
    match
      Exec.run_result ~collect_pairs:true ~par ~kernel:Counting.Direct2
        (Exec.context db info) q
    with
    | Ok r -> Ok (signature r)
    | Error e -> Error (Cfq_error.to_string e)
  in
  (* faulted distributed passes run shards sequentially: domains=3 must
     still be deterministic *)
  Alcotest.(check bool) "same outcome across twin runs" true
    (outcome () = outcome ())

(* ------------------------------------------------------------------ *)
(* service: a fault pinned to one shard trips only that shard's breaker;
   other shards keep serving and the caches stay available *)

let breaker_isolation () =
  let sets = sets_of_lists fixed_lists in
  let db = Sharded.mem_db ~page_model:small_pm ~shards:3 sets in
  let subs = Option.get (Tx_db.shards db) in
  let info = Helpers.small_info 9 in
  let config =
    {
      Service.default_config with
      Service.domains = 1;
      retries = 0;
      breaker_threshold = 1;
      breaker_cooldown = 1;
      degrade = false;
    }
  in
  let service = Service.create ~config (Exec.context db info) in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let q_narrow = Query.make ~s_minsup:0.3 ~t_minsup:0.3 () in
  let q_broad = Query.make ~s_minsup:0.1 ~t_minsup:0.1 () in
  (* prime the answer cache while healthy *)
  (match Service.run service q_narrow with
  | Ok a ->
      Alcotest.(check bool) "primed cold" true (a.Service.served_from = Service.Cold)
  | Error e -> Alcotest.failf "prime: %s" (Service.error_to_string e));
  (* shard 1 goes bad *)
  Tx_db.set_faults subs.(1)
    (Some (Fault.create { Fault.default_config with Fault.transient_p = 1.0 }));
  (match Service.run service q_broad with
  | Error (Service.Fault _) -> ()
  | Error e -> Alcotest.failf "expected a fault, got %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected a fault");
  let m = Service.metrics service in
  let row k = List.nth m.Metrics.shards k in
  Alcotest.(check int) "three shard rows" 3 (List.length m.Metrics.shards);
  Alcotest.(check string) "shard 1 breaker open" "open" (row 1).Metrics.shard_breaker;
  Alcotest.(check int) "shard 1 tripped" 1 (row 1).Metrics.shard_trips;
  Alcotest.(check int) "shard 1 failure attributed" 1 (row 1).Metrics.shard_failures;
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d breaker stays closed" k)
        "closed" (row k).Metrics.shard_breaker;
      Alcotest.(check int)
        (Printf.sprintf "shard %d no failures" k)
        0 (row k).Metrics.shard_failures)
    [ 0; 2 ];
  (* the caches keep serving while breakers are open *)
  (match Service.run service q_narrow with
  | Ok a ->
      Alcotest.(check bool) "cache served during the outage" true
        (a.Service.served_from = Service.Answer_cache)
  | Error e -> Alcotest.failf "cached query: %s" (Service.error_to_string e));
  (* shard 1 recovers: an uncached query is shed once while the shard
     breaker cools down, then the probe closes it *)
  Tx_db.set_faults subs.(1) None;
  (match Service.run service q_broad with
  | Error Service.Overloaded -> ()
  | Error e -> Alcotest.failf "expected Overloaded, got %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected the shard cooldown to shed");
  (match Service.run service q_broad with
  | Ok a ->
      Alcotest.(check bool) "probe mined cold" true
        (a.Service.served_from = Service.Cold)
  | Error e -> Alcotest.failf "probe: %s" (Service.error_to_string e));
  let m = Service.metrics service in
  let row k = List.nth m.Metrics.shards k in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d closed after the cold success" k)
        "closed" (row k).Metrics.shard_breaker)
    [ 0; 1; 2 ];
  Alcotest.(check int) "the cooldown shed was charged to shard 1" 1
    (row 1).Metrics.shard_shed

(* a store-wide injector on the composite keeps shard breakers out of it:
   the failure is not attributable to any one shard *)
let composite_fault_is_store_wide () =
  let sets = sets_of_lists fixed_lists in
  let db = Sharded.mem_db ~page_model:small_pm ~shards:3 sets in
  let info = Helpers.small_info 9 in
  let config =
    {
      Service.default_config with
      Service.domains = 1;
      retries = 0;
      breaker_threshold = 1;
      degrade = false;
    }
  in
  let service = Service.create ~config (Exec.context db info) in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  Tx_db.set_faults db
    (Some (Fault.create { Fault.default_config with Fault.transient_p = 1.0 }));
  (match Service.run service (Query.make ~s_minsup:0.1 ~t_minsup:0.1 ()) with
  | Error (Service.Fault _) -> ()
  | _ -> Alcotest.fail "expected a fault");
  let m = Service.metrics service in
  Alcotest.(check int) "global breaker tripped" 1 m.Metrics.breaker_trips;
  List.iter
    (fun (row : Metrics.shard_row) ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d breaker untouched" row.Metrics.shard)
        "closed" row.Metrics.shard_breaker;
      Alcotest.(check int) "no shard attribution" 0 row.Metrics.shard_failures)
    m.Metrics.shards;
  Tx_db.set_faults db None

(* ------------------------------------------------------------------ *)
(* durability: failed builds leave no orphans; out-of-band shard seals
   self-heal on open; sharded ingestion round-trips *)

let failed_build_leaves_no_orphans () =
  let path = tmp_path "orphans" in
  let sets = sets_of_lists fixed_lists in
  (match Sharded.build ~shards:3 ~on_shard_built:(fun k -> if k = 1 then failwith "boom") path sets with
  | () -> Alcotest.fail "build was supposed to fail"
  | exception Failure _ -> ());
  let leftovers =
    List.filter Sys.file_exists
      (path :: (path ^ ".tmp")
      :: List.concat_map
           (fun k -> [ Sharded.shard_path path k; Sharded.shard_path path k ^ ".wal" ])
           [ 0; 1; 2 ])
  in
  Alcotest.(check (list string)) "no files survive a failed build" [] leftovers

let open_self_heals_a_stale_manifest () =
  let path = tmp_path "heal" in
  let sets = sets_of_lists fixed_lists in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 path sets;
  let gen0 = (Manifest.read path).Manifest.generation in
  (* seal shard 1 behind the manifest's back: the torn-seal window *)
  let st = Cfq_store.Store.open_ (Sharded.shard_path path 1) in
  Cfq_store.Store.append_tx st (Itemset.of_list [ 0; 7 ]);
  ignore (Cfq_store.Store.seal st);
  Cfq_store.Store.close st;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  Alcotest.(check int) "healed size includes the stray tx"
    (Array.length sets + 1) (Sharded.size sh);
  Alcotest.(check bool) "manifest generation bumped" true
    ((Sharded.manifest sh).Manifest.generation > gen0);
  (match verify_checksums (Sharded.db sh) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healed verify: %s" (Cfq_error.to_string e));
  (* a second open finds the healed manifest consistent *)
  let sh2 = Sharded.open_ path in
  let gen_after = (Sharded.manifest sh2).Manifest.generation in
  Sharded.close sh2;
  Alcotest.(check int) "no further heal" (Sharded.manifest sh).Manifest.generation
    gen_after

let sharded_ingestion_roundtrip () =
  let path = tmp_path "ingest" in
  let sets = sets_of_lists fixed_lists in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 path sets;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Sharded.append_tx sh (Itemset.of_list [ 1; 2; 8 ]);
  Sharded.append_tx sh (Itemset.of_list [ 5 ]);
  Alcotest.(check int) "not visible before seal" (Array.length sets)
    (Sharded.size sh);
  Alcotest.(check int) "sealed" 2 (Sharded.seal sh);
  Alcotest.(check int) "visible" (Array.length sets + 2) (Sharded.size sh);
  (* tid-range appends land on the last shard: global order is the
     original batch followed by the appended txs *)
  let expected =
    List.map Itemset.to_list (Array.to_list sets) @ [ [ 1; 2; 8 ]; [ 5 ] ]
  in
  Alcotest.(check (list (list int))) "content order"
    expected
    (List.map snd (all_txs (Sharded.db sh)));
  Sharded.close sh;
  (* reopen: durable, consistent, verifiable *)
  let sh = Sharded.open_ path in
  Alcotest.(check int) "durable" (Array.length sets + 2) (Sharded.size sh);
  (match verify_checksums (Sharded.db sh) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %s" (Cfq_error.to_string e));
  Sharded.close sh

(* the on-disk sharded composite mines identically to the in-memory one *)
let disk_matches_memory () =
  let path = tmp_path "disk" in
  let sets = sets_of_lists fixed_lists in
  let info = Helpers.small_info 9 in
  let q = Query.make ~s_minsup:0.1 ~t_minsup:0.1 () in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 path sets;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  let run db =
    let r = Exec.run ~collect_pairs:true (Exec.context db info) q in
    (signature r, (Io_stats.scans r.Exec.io, Io_stats.pages_read r.Exec.io))
  in
  let mem = run (Sharded.mem_db ~page_model:small_pm ~shards:3 sets) in
  let disk = run (Sharded.db sh) in
  Alcotest.(check bool) "identical answers, supports, ccc and I/O" true
    (mem = disk)

(* ------------------------------------------------------------------ *)
(* replication: failover identity, mirrored quorum writes, scrub/repair *)

let permanent_fault () =
  Some (Fault.create { Fault.default_config with Fault.transient_p = 1.0 })

let run_signature db info q =
  let r = Exec.run ~collect_pairs:true (Exec.context db info) q in
  (signature r, (Io_stats.scans r.Exec.io, Io_stats.pages_read r.Exec.io))

(* a permanently faulted replica is invisible: answers, ccc and logical
   page charges stay byte-identical to the unreplicated store, served by
   failover to the healthy sibling *)
let replica_failover_identity () =
  let path = tmp_path "replica_id" and ref_path = tmp_path "replica_ref" in
  let sets = sets_of_lists fixed_lists in
  let info = Helpers.small_info 9 in
  let q = Query.make ~s_minsup:0.1 ~t_minsup:0.1 () in
  Fun.protect ~finally:(fun () ->
      Sharded.remove_files path;
      Sharded.remove_files ref_path)
  @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 ref_path sets;
  Sharded.build ~page_model:small_pm ~shards:3 ~replicas:2 path sets;
  let reference =
    let sh = Sharded.open_ ~cache_pages:4 ref_path in
    Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
    run_signature (Sharded.db sh) info q
  in
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  Alcotest.(check int) "two replicas recorded" 2 (Sharded.replicas sh);
  Alcotest.(check bool) "replicated healthy run identical" true
    (run_signature (Sharded.db sh) info q = reference);
  (* permanently fault each shard's preferred replica in turn *)
  for k = 0 to 2 do
    Sharded.set_replica_fault sh ~shard:k ~replica:0 (permanent_fault ());
    Alcotest.(check bool)
      (Printf.sprintf "faulted shard %d replica 0: identical" k)
      true
      (run_signature (Sharded.db sh) info q = reference);
    Sharded.set_replica_fault sh ~shard:k ~replica:0 None
  done;
  Alcotest.(check bool) "failovers counted" true (Sharded.failovers sh > 0)

let nth_health g j = Replica.health g ~replica:j

(* mirrored writes: a write-faulted replica goes stale, the quorum keeps
   accepting; losing the quorum raises; repair re-admits the laggard *)
let mirrored_quorum_and_repair () =
  let path = tmp_path "quorum" in
  let sets = sets_of_lists fixed_lists in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:2 ~replicas:3 path sets;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  let last = Sharded.shard_count sh - 1 in
  let g = (Sharded.groups sh).(last) in
  (* replica 2 starts dropping writes: 2/3 is still a quorum *)
  Sharded.set_replica_write_fault sh ~shard:last ~replica:2 true;
  Sharded.append_tx sh (Itemset.of_list [ 1; 2; 8 ]);
  Alcotest.(check int) "sealed under quorum" 1 (Sharded.seal sh);
  Alcotest.(check bool) "laggard went stale" true
    (nth_health g 2 = Manifest.Stale);
  Alcotest.(check bool) "manifest records the stale replica" true
    ((Sharded.manifest sh).Manifest.shards.(last).Manifest.s_replicas.(2)
       .Manifest.r_health = Manifest.Stale);
  (* replica 1 drops writes too: 1/3 accepting loses the quorum *)
  Sharded.set_replica_write_fault sh ~shard:last ~replica:1 true;
  (match Sharded.append_tx sh (Itemset.of_list [ 5 ]) with
  | () -> Alcotest.fail "append below quorum was supposed to fail"
  | exception Cfq_error.Error (Cfq_error.Transient_io _) -> ());
  Sharded.set_replica_write_fault sh ~shard:last ~replica:1 false;
  Sharded.set_replica_write_fault sh ~shard:last ~replica:2 false;
  (* anti-entropy: both laggards rebuilt from the healthy survivor *)
  let report = Scrub.run sh in
  Alcotest.(check int) "two replicas repaired" 2 report.Scrub.repairs;
  Alcotest.(check int) "no repair failures" 0 report.Scrub.repair_failures;
  for j = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d healthy after repair" j)
      true
      (nth_health g j = Manifest.Healthy)
  done;
  Alcotest.(check bool) "health report clean" true
    (Scrub.healthy_report (Scrub.health_report sh));
  (* every replica now byte-agrees: scrub with nothing to do *)
  let report = Scrub.run sh in
  Alcotest.(check int) "second scrub repairs nothing" 0 report.Scrub.repairs;
  Alcotest.(check int) "second scrub finds nothing" 0 report.Scrub.faults_found

(* on-disk rot on one replica: queries fail over silently; the scrubber
   finds the bad page, quarantines, rebuilds and re-admits the replica *)
let scrub_repairs_disk_rot () =
  let path = tmp_path "rot" in
  let sets = sets_of_lists fixed_lists in
  let info = Helpers.small_info 9 in
  let q = Query.make ~s_minsup:0.1 ~t_minsup:0.1 () in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 ~replicas:2 path sets;
  let reference =
    let sh = Sharded.open_ ~cache_pages:4 path in
    Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
    run_signature (Sharded.db sh) info q
  in
  (* rot a byte in shard 0, replica 0's first data page (pages are 64 B) *)
  let victim = Replica.replica_path path ~shard:0 ~replica:0 in
  let fd = Unix.openfile victim [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (64 + 7) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xFF") 0 1);
  Unix.close fd;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  Alcotest.(check bool) "rotten replica: answers identical via failover" true
    (run_signature (Sharded.db sh) info q = reference);
  Alcotest.(check bool) "failover happened" true (Sharded.failovers sh > 0);
  let report = Scrub.run ~throttle_pages:4 ~throttle_sleep:0.0001 sh in
  Alcotest.(check bool) "scrub found the bad page" true
    (report.Scrub.faults_found >= 1);
  Alcotest.(check int) "scrub repaired the replica" 1 report.Scrub.repairs;
  Alcotest.(check int) "no repair failures" 0 report.Scrub.repair_failures;
  Alcotest.(check bool) "health report clean after repair" true
    (Scrub.healthy_report (Scrub.health_report sh));
  Alcotest.(check bool) "repaired store: answers identical" true
    (run_signature (Sharded.db sh) info q = reference);
  (* a reopen agrees with the repaired manifest: no further healing *)
  let gen = (Sharded.manifest sh).Manifest.generation in
  let sh2 = Sharded.open_ path in
  let gen2 = (Sharded.manifest sh2).Manifest.generation in
  Sharded.close sh2;
  Alcotest.(check int) "reopen does not re-heal" gen gen2

(* the service never sees a failed-over read: no breaker trips, no
   degraded answers, failovers surfaced in the metrics *)
let failover_is_invisible_to_breakers () =
  let path = tmp_path "svc_failover" in
  let sets = sets_of_lists fixed_lists in
  let info = Helpers.small_info 9 in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 ~replicas:2 path sets;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  Sharded.set_replica_fault sh ~shard:1 ~replica:0 (permanent_fault ());
  let config =
    {
      Service.default_config with
      Service.domains = 1;
      retries = 0;
      breaker_threshold = 1;
      breaker_cooldown = 1;
      degrade = true;
    }
  in
  let service = Service.create ~config (Exec.context (Sharded.db sh) info) in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  List.iter
    (fun (s, t) ->
      match Service.run service (Query.make ~s_minsup:s ~t_minsup:t ()) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "query under failover: %s" (Service.error_to_string e))
    [ (0.1, 0.1); (0.15, 0.2); (0.25, 0.1) ];
  let m = Service.metrics service in
  Alcotest.(check int) "no breaker trips" 0 m.Metrics.breaker_trips;
  Alcotest.(check int) "no degraded answers" 0 m.Metrics.degraded;
  Alcotest.(check int) "no failures" 0 m.Metrics.failures;
  Alcotest.(check int) "no faults reached the service" 0
    (m.Metrics.fault_transient + m.Metrics.fault_corrupt + m.Metrics.fault_crash);
  Alcotest.(check bool) "failovers surfaced in metrics" true
    (m.Metrics.failovers > 0);
  List.iter
    (fun (row : Metrics.shard_row) ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d breaker closed" row.Metrics.shard)
        "closed" row.Metrics.shard_breaker)
    m.Metrics.shards;
  (* shard 1's sink carries the failovers *)
  Alcotest.(check bool) "failovers attributed to shard 1" true
    ((List.nth m.Metrics.shards 1).Metrics.shard_failovers > 0)

(* exhausting every replica surfaces one typed, shard-attributed error *)
let all_replicas_down_is_a_shard_fault () =
  let path = tmp_path "all_down" in
  let sets = sets_of_lists fixed_lists in
  Fun.protect ~finally:(fun () -> Sharded.remove_files path) @@ fun () ->
  Sharded.build ~page_model:small_pm ~shards:3 ~replicas:2 path sets;
  let sh = Sharded.open_ ~cache_pages:4 path in
  Fun.protect ~finally:(fun () -> Sharded.close sh) @@ fun () ->
  Sharded.set_replica_fault sh ~shard:1 ~replica:0 (permanent_fault ());
  Sharded.set_replica_fault sh ~shard:1 ~replica:1 (permanent_fault ());
  let db = Sharded.db sh in
  let io = Io_stats.create () in
  match Tx_db.iter_scan db io (fun _ -> ()) with
  | () -> Alcotest.fail "scan with every replica down was supposed to fail"
  | exception Cfq_error.Error (Cfq_error.Transient_io { page }) ->
      Alcotest.(check int) "error page attributed to shard 1" 1
        (Tx_db.shard_of_page db page)

(* version-1 manifests (no replica section) read as single-replica *)
let manifest_v1_reads_as_single_replica () =
  let path = tmp_path "man_v1" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* hand-encode the v1 layout: 52-byte fixed part, 24-byte entries *)
  let ns = 2 and n_pages = 2 in
  let total = 52 + (ns * 24) + (n_pages * 8) + 4 in
  let b = Bytes.make total '\000' in
  Bytes.blit_string "CFQMAN01" 0 b 0 8;
  Bytes.set_int32_le b 8 1l; (* version *)
  Bytes.set_int32_le b 12 0l; (* tid-range *)
  Bytes.set_int32_le b 16 (Int32.of_int ns);
  Bytes.set_int64_le b 20 7L; (* generation *)
  Bytes.set_int64_le b 28 9L; (* n_txs *)
  Bytes.set_int64_le b 36 (Int64.of_int n_pages);
  Bytes.set_int64_le b 44 5L; (* universe *)
  List.iteri
    (fun k (txs, pages, gen) ->
      let off = 52 + (k * 24) in
      Bytes.set_int64_le b off (Int64.of_int txs);
      Bytes.set_int64_le b (off + 8) (Int64.of_int pages);
      Bytes.set_int64_le b (off + 16) (Int64.of_int gen))
    [ (4, 1, 7); (5, 1, 7) ];
  Bytes.set_int64_le b (52 + (ns * 24)) 0xAAL;
  Bytes.set_int64_le b (52 + (ns * 24) + 8) 0xBBL;
  Bytes.set_int32_le b (total - 4)
    (Int32.of_int (Cfq_store.Crc32.sub b 0 (total - 4)));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let m = Manifest.read path in
  Alcotest.(check int) "single replica" 1 m.Manifest.replicas;
  Alcotest.(check int) "two shards" 2 (Array.length m.Manifest.shards);
  Array.iter
    (fun e ->
      Alcotest.(check int) "one replica entry" 1
        (Array.length e.Manifest.s_replicas);
      Alcotest.(check bool) "healthy" true
        (e.Manifest.s_replicas.(0).Manifest.r_health = Manifest.Healthy);
      Alcotest.(check int) "replica generation mirrors the shard's"
        e.Manifest.s_generation
        e.Manifest.s_replicas.(0).Manifest.r_generation)
    m.Manifest.shards

(* fuzz: arbitrary bit-flips and truncations of the manifest must read
   back fine (untouched) or raise Bad_manifest — nothing else *)
let qcheck_manifest_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"manifest fuzz: flips/truncations fail typed"
       ~count:80
       ~print:(fun (off, flip) -> Printf.sprintf "off=%d flip=%b" off flip)
       QCheck2.Gen.(pair (int_bound 4095) bool)
       (fun (off, flip) ->
         let path =
           Filename.temp_file "cfq_manifest_fuzz" ".cfqdb"
         in
         let m =
           {
             Manifest.generation = 1;
             partition = Manifest.Tid_range;
             universe = 9;
             n_txs = 6;
             n_pages = 2;
             replicas = 2;
             shards =
               [|
                 {
                   Manifest.s_txs = 6;
                   s_pages = 2;
                   s_generation = 1;
                   s_replicas =
                     Array.make 2
                       { Manifest.r_generation = 1; r_health = Manifest.Healthy };
                 };
               |];
             checksums = [| 123; 456 |];
           }
         in
         Manifest.write path m;
         let size = (Unix.stat path).Unix.st_size in
         if flip then begin
           let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
           let pos = off mod size in
           let buf = Bytes.create 1 in
           ignore (Unix.lseek fd pos Unix.SEEK_SET);
           ignore (Unix.read fd buf 0 1);
           Bytes.set buf 0 (Char.chr (Char.code (Bytes.get buf 0) lxor 0x10));
           ignore (Unix.lseek fd pos Unix.SEEK_SET);
           ignore (Unix.write fd buf 0 1);
           Unix.close fd
         end
         else Unix.truncate path (off mod size);
         (* the CRC covers every payload byte and any truncation breaks
            the size arithmetic: both mutations must be rejected typed *)
         let ok =
           match Manifest.read path with
           | _ -> false
           | exception Manifest.Bad_manifest _ -> true
         in
         Sys.remove path;
         ok))

(* ------------------------------------------------------------------ *)

let suite =
  [
    unit "manifest round-trip and CRC rejection" manifest_roundtrip;
    unit "manifest probe rejects plain segments" plain_segment_is_not_a_manifest;
    unit "tid-range composite is I/O-identical to unsharded" tid_range_is_io_identical;
    unit "scan chunks are memoized and exposed" chunk_runs_memoized;
    qcheck_count_distribution;
    unit "fault twin: shard-pinned injector is deterministic" shard_pinned_fault_twin;
    unit "fault twin: mining outcome deterministic at domains=3" shard_pinned_mining_twin;
    unit "service: breaker isolation per shard" breaker_isolation;
    unit "service: composite faults stay store-wide" composite_fault_is_store_wide;
    unit "failed build leaves no orphans" failed_build_leaves_no_orphans;
    unit "open self-heals a stale manifest" open_self_heals_a_stale_manifest;
    unit "sharded ingestion round-trip" sharded_ingestion_roundtrip;
    unit "disk sharded = memory sharded" disk_matches_memory;
    unit "replica failover keeps answers byte-identical" replica_failover_identity;
    unit "mirrored writes: quorum, stale laggards, repair" mirrored_quorum_and_repair;
    unit "scrub quarantines and repairs on-disk rot" scrub_repairs_disk_rot;
    unit "service: failover trips no breakers" failover_is_invisible_to_breakers;
    unit "all replicas down = typed shard fault" all_replicas_down_is_a_shard_fault;
    unit "v1 manifest reads as single-replica" manifest_v1_reads_as_single_replica;
    qcheck_manifest_fuzz;
  ]
