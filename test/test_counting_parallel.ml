(* The parallel counting engine: count_pass under domains>1 must be
   indistinguishable from the sequential pass — same counts, same ccc and
   I/O charges, same fault behaviour — whether helpers are spawned or
   borrowed from a pool. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

let domain_grid = [ 1; 2; 3; 7 ]

(* a page model small enough that a 20-60 tx database spans many pages, so
   scan_chunks has real page boundaries to align to *)
let tiny_pages = Page_model.make ~page_size_bytes:64 ()

let db_of_lists txs =
  Tx_db.create ~page_model:tiny_pages
    (Array.of_list (List.map Itemset.of_list txs))

let families_of (cands_s, cands_t) =
  [ (Counters.create (), cands_s); (Counters.create (), cands_t) ]

(* one pass over listed families, each family's supports in candidate
   order *)
let count ?par db io families =
  List.map Counting.counts
    (Counting.count_pass ?par db io
       (List.map (fun (counters, cands) -> (counters, Candidate.Sets cands)) families))

let run_shared ?par db families =
  let io = Io_stats.create () in
  let counts = count ?par db io families in
  (counts, Io_stats.scans io, Io_stats.pages_read io)

(* property input: a database plus an S family and a T family *)
let gen_input =
  QCheck2.Gen.(
    let* n = Helpers.gen_universe_size in
    let* txs = Helpers.gen_db_lists n in
    let* cs = list_size (int_range 0 8) (Helpers.gen_itemset n) in
    let* ct = list_size (int_range 0 8) (Helpers.gen_itemset n) in
    return (n, txs, cs, ct))

let print_input (n, txs, cs, ct) =
  Printf.sprintf "n=%d txs=%d s_cands=%d t_cands=%d" n (List.length txs)
    (List.length cs) (List.length ct)

let cand_arrays (cs, ct) =
  ( Array.of_list (List.sort_uniq Itemset.compare cs),
    Array.of_list (List.sort_uniq Itemset.compare ct) )

let prop_parallel_equals_sequential pool (_, txs, cs, ct) =
  let db = db_of_lists txs in
  let cands = cand_arrays (cs, ct) in
  let seq = run_shared db (families_of cands) in
  List.for_all
    (fun domains ->
      let par = Counting.par ?pool ~min_rows_per_domain:1 domains in
      run_shared ~par db (families_of cands) = seq)
    domain_grid

let empty_families_skip_the_scan () =
  let db = db_of_lists [ [ 0; 1 ]; [ 1; 2 ]; [ 0 ] ] in
  let io = Io_stats.create () in
  let counts = count db io [ (Counters.create (), [||]); (Counters.create (), [||]) ] in
  Alcotest.(check (list (array int))) "all counts empty" [ [||]; [||] ] counts;
  Alcotest.(check int) "no scan charged" 0 (Io_stats.scans io);
  Alcotest.(check int) "no pages charged" 0 (Io_stats.pages_read io);
  (* the parallel path takes the same fast path *)
  let counts =
    count ~par:(Counting.par ~min_rows_per_domain:1 4) db io [ (Counters.create (), [||]) ]
  in
  Alcotest.(check (list (array int))) "parallel fast path" [ [||] ] counts;
  Alcotest.(check int) "still no scan" 0 (Io_stats.scans io);
  (* a non-empty family alongside an empty one still scans, once *)
  let _ =
    count db io
      [ (Counters.create (), [||]); (Counters.create (), [| Itemset.of_list [ 0 ] |]) ]
  in
  Alcotest.(check int) "one scan for the non-empty family" 1 (Io_stats.scans io)

(* twin stores, twin injectors, same seed: the sequential and the parallel
   engine must draw the same fault stream — same raised error, same
   injector statistics, same I/O charges *)
let fault_outcome fault_cfg ~par txs cands =
  let db = db_of_lists txs in
  let fl = Fault.create fault_cfg in
  Tx_db.set_faults db (Some fl);
  let io = Io_stats.create () in
  let outcome =
    match
      count ?par db io [ (Counters.create (), cands) ]
    with
    | counts -> Ok counts
    | exception Cfq_error.Error e -> Error e
  in
  (outcome, Fault.stats fl, Io_stats.scans io, Io_stats.pages_read io)

let parallel_scan_respects_the_fault_layer () =
  let txs = List.init 40 (fun i -> [ i mod 5; 5 + (i mod 3); 8 ]) in
  let cands = [| Itemset.of_list [ 8 ]; Itemset.of_list [ 0; 8 ] |] in
  let check name cfg =
    let seq = fault_outcome cfg ~par:None txs cands in
    let par =
      fault_outcome cfg ~par:(Some (Counting.par ~min_rows_per_domain:1 3)) txs cands
    in
    if seq <> par then
      Alcotest.failf "%s: parallel fault behaviour diverged from sequential" name
  in
  (* deterministic transient error on the first page read *)
  check "fail_first" { Fault.default_config with Fault.fail_first = 1 };
  (* probabilistic transients across the page walk *)
  check "transient_p"
    { Fault.default_config with Fault.transient_p = 0.3; seed = 0xFEEDL };
  (* bounded corruption caught by the checksums *)
  check "corrupt_p"
    { Fault.default_config with Fault.corrupt_p = 0.9; max_corrupt = 1; seed = 0xBADL };
  (* injected crash on scan admission *)
  check "crash_p" { Fault.default_config with Fault.crash_p = 1.0 };
  (* and with no drawn faults at all, both engines count identically *)
  check "quiet" { Fault.default_config with Fault.transient_p = 0.0 }

let chunks_cover_the_scan () =
  let txs = List.init 37 (fun i -> [ i mod 7; 7 + (i mod 4) ]) in
  let db = db_of_lists txs in
  List.iter
    (fun max_chunks ->
      let chunks = Tx_db.scan_chunks db ~max_chunks in
      (* disjoint, ascending, covering *)
      let expected = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !expected lo;
          Alcotest.(check bool) "non-empty" true (hi >= lo);
          (* no page split across a boundary *)
          if lo > 0 then
            Alcotest.(check bool) "page-aligned" true
              (Tx_db.page_of_tx db (lo - 1) <> Tx_db.page_of_tx db lo);
          expected := hi + 1)
        chunks;
      Alcotest.(check int) "covers every transaction" (Tx_db.size db) !expected;
      Alcotest.(check bool) "bounded count" true (List.length chunks <= max 1 max_chunks))
    [ 1; 2; 3; 5; 16; 1000 ];
  Alcotest.(check (list (pair int int))) "empty db"
    []
    (Tx_db.scan_chunks (db_of_lists []) ~max_chunks:4)

let exec_run_parallel_equals_sequential () =
  let n = 8 in
  let txs =
    List.init 60 (fun i -> List.init (1 + (i mod 4)) (fun j -> (i + (3 * j)) mod n))
  in
  let db = db_of_lists txs in
  let info = Helpers.small_info n in
  let ctx = Cfq_core.Exec.context db info in
  let q =
    Cfq_core.Parser.parse
      "{(S,T) | freq(S) >= 0.1 & freq(T) >= 0.1 & max(S.Price) <= min(T.Price)}"
  in
  let run ?par () =
    let r = Cfq_core.Exec.run ~collect_pairs:true ?par ctx q in
    ( Helpers.sorted_pairs
        (List.map
           (fun (s, t) -> (s.Frequent.set, t.Frequent.set))
           r.Cfq_core.Exec.pairs),
      Cfq_core.Exec.total_counted r,
      Cfq_core.Exec.total_checks r,
      Io_stats.scans r.Cfq_core.Exec.io )
  in
  let seq = run ~par:Counting.sequential () in
  List.iter
    (fun domains ->
      let par = run ~par:(Counting.par ~min_rows_per_domain:1 domains) () in
      if par <> seq then
        Alcotest.failf "Exec.run at %d domains diverged from sequential" domains)
    domain_grid

(* ------------------------------------------------------------------ *)
(* Fused grid: every kernel x every domain count mines identically      *)
(* ------------------------------------------------------------------ *)

(* The tentpole contract in one property: for each kernel, the full mine is
   bit-identical — frequent sets, supports, ccc, logical scans AND page
   charges — at every domain count. *)
let gen_grid =
  QCheck2.Gen.(
    let* n, db = Helpers.gen_db in
    let* minsup = int_range 2 8 in
    return (n, db, minsup))

let print_grid (n, db, minsup) =
  Printf.sprintf "minsup=%d %s" minsup (Helpers.print_db (n, db))

let session_of = Counting.create_session

let mine_fingerprint ~kernel ~domains db n ~minsup =
  let info = Helpers.small_info n in
  let io = Io_stats.create () in
  let par = Counting.par ~min_rows_per_domain:1 domains in
  let out =
    Apriori.mine db info io ~par ~session:(session_of kernel) ~minsup ()
  in
  ( List.map
      (fun e -> (Itemset.to_string e.Frequent.set, e.Frequent.support))
      (Frequent.to_list out.Apriori.frequent),
    Counters.support_counted out.Apriori.counters,
    Counters.candidates_generated out.Apriori.counters,
    Io_stats.scans io,
    Io_stats.pages_read io )

let prop_fused_kernel_domain_grid (n, db, minsup) =
  List.for_all
    (fun (_, kernel) ->
      let base = mine_fingerprint ~kernel ~domains:1 db n ~minsup in
      List.for_all
        (fun domains -> mine_fingerprint ~kernel ~domains db n ~minsup = base)
        domain_grid)
    Counting.all_kernels

(* Over a sharded composite the coordinator builds each pass's
   representations once and every shard counts with them read-only, each
   with its own accumulators and direct2 scratch.  A Direct2 mine over a
   3-shard composite must then charge the same scans and pages at every
   width — checked over many runs, since a race between shards would be
   timing-bound. *)
let sharded_direct2_charges_are_width_independent () =
  let n = 6 in
  let sets =
    Array.init 90 (fun i ->
        Itemset.of_list (List.init (2 + (i mod 4)) (fun j -> (i + j) mod n)))
  in
  let db = Cfq_shard.Sharded.mem_db ~page_model:tiny_pages ~shards:3 sets in
  let info = Helpers.small_info n in
  let charges domains =
    let io = Io_stats.create () in
    let par = Counting.par ~min_rows_per_domain:1 domains in
    let _ =
      Apriori.mine db info io ~par ~session:(session_of Counting.Direct2)
        ~minsup:3 ()
    in
    (Io_stats.scans io, Io_stats.pages_read io)
  in
  let base = charges 1 in
  for _ = 1 to 40 do
    Alcotest.(check (pair int int)) "scans and pages at 2 domains" base (charges 2)
  done

(* The default work floor only narrows the fan-out; it never changes the
   result.  On a tiny database [par 4] runs effectively sequential while
   [~min_rows_per_domain:1] forces the full fan-out — both must match the
   sequential run exactly, including I/O charges. *)
let default_work_floor_is_result_identical () =
  let n = 8 in
  let txs =
    List.init 60 (fun i -> List.init (1 + (i mod 4)) (fun j -> (i + (3 * j)) mod n))
  in
  let db = db_of_lists txs in
  let info = Helpers.small_info n in
  let ctx = Cfq_core.Exec.context db info in
  let q =
    Cfq_core.Parser.parse
      "{(S,T) | freq(S) >= 0.1 & freq(T) >= 0.1 & max(S.Price) <= min(T.Price)}"
  in
  let run ?par () =
    let r = Cfq_core.Exec.run ~collect_pairs:true ?par ctx q in
    ( Helpers.sorted_pairs
        (List.map
           (fun (s, t) -> (s.Frequent.set, t.Frequent.set))
           r.Cfq_core.Exec.pairs),
      Cfq_core.Exec.total_counted r,
      Cfq_core.Exec.total_checks r,
      Io_stats.scans r.Cfq_core.Exec.io,
      Io_stats.pages_read r.Cfq_core.Exec.io )
  in
  let seq = run ~par:Counting.sequential () in
  let floored = run ~par:(Counting.par 4) () in
  let forced = run ~par:(Counting.par ~min_rows_per_domain:1 4) () in
  if floored <> seq then
    Alcotest.fail "default work floor diverged from sequential";
  if forced <> seq then
    Alcotest.fail "forced fan-out diverged from sequential"

(* ------------------------------------------------------------------ *)
(* Exec.run's default width                                             *)
(* ------------------------------------------------------------------ *)

(* Domain ids are handed out in spawn order, so the domains [f] spawned
   are the gap between the ids of two probe domains around it. *)
let spawned f =
  let probe () = (Domain.join (Domain.spawn Domain.self) :> int) in
  let before = probe () in
  let r = f () in
  (r, probe () - before - 1)

let kernel_note r =
  match
    List.find_opt (String.starts_with ~prefix:"counting kernels") r.Cfq_core.Exec.notes
  with
  | Some note -> note
  | None -> Alcotest.fail "no counting kernels note"

let default_run rows =
  let n = 8 in
  let db = Tx_db.create (Helpers.seeded_rows ~seed:7 ~n rows) in
  let ctx = Cfq_core.Exec.context db (Helpers.small_info n) in
  let q =
    Cfq_core.Parser.parse
      "{(S,T) | freq(S) >= 0.1 & freq(T) >= 0.1 & max(S.Price) <= min(T.Price)}"
  in
  spawned (fun () -> kernel_note (Cfq_core.Exec.run ctx q))

let default_fans_out_on_a_large_db () =
  let cores = Domain.recommended_domain_count () in
  if cores = 1 then Alcotest.skip ();
  let note, n = default_run (2 * Counting.default_min_rows_per_domain) in
  Alcotest.(check bool) note true
    (Astring_contains.contains note (Printf.sprintf "on %d domains:" cores));
  Alcotest.(check int) "a private pool of the other domains" (cores - 1) n

let default_is_sequential_on_a_small_db () =
  let note, n = default_run 60 in
  Alcotest.(check bool) note true (Astring_contains.contains note "on 1 domain:");
  Alcotest.(check int) "no pool" 0 n

(* The default against an explicit sequential run on random databases
   with rows enough to fan out, on memory, a 3-shard composite and an
   on-disk store whose pool holds an eighth of its pages, for both
   kernels: the same pairs, frequent sets, ccc counters, scans and pages,
   and with one page corrupted the same typed error. *)
let gen_default_input =
  QCheck2.Gen.(
    let* n = Helpers.gen_universe_size in
    let* seed = int_bound 1_000_000 in
    let* extra = int_bound 1000 in
    let* q = Helpers.gen_query in
    return (n, seed, (2 * Counting.default_min_rows_per_domain) + extra, q))

let print_default_input (n, seed, rows, q) =
  Printf.sprintf "n=%d seed=%d rows=%d %s" n seed rows (Cfq_core.Query.to_string q)

let small_pages = Page_model.make ~page_size_bytes:256 ()

let with_backend name sets f =
  match name with
  | "memory" -> f (Tx_db.create ~page_model:small_pages sets)
  | "sharded" -> f (Cfq_shard.Sharded.mem_db ~page_model:small_pages ~shards:3 sets)
  | _ ->
      let path = Filename.temp_file "cfq_default_width" ".cfqdb" in
      let remove () =
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; path ^ ".wal" ]
      in
      Fun.protect ~finally:remove (fun () ->
          Cfq_store.Store.build ~page_model:small_pages path sets;
          let pages = Page_model.pages_for small_pages (Array.map Itemset.cardinal sets) in
          let st = Cfq_store.Store.open_ ~cache_pages:(max 1 (pages / 8)) path in
          Fun.protect ~finally:(fun () -> Cfq_store.Store.close st) (fun () ->
              f (Cfq_store.Store.db st)))

let fingerprint r =
  let open Cfq_core.Exec in
  let side s =
    ( List.map (fun e -> (e.Frequent.set, e.Frequent.support)) (Frequent.to_list s.frequent),
      Counters.support_counted s.counters,
      Counters.constraint_checks s.counters,
      Counters.candidates_generated s.counters )
  in
  ( Helpers.sorted_pairs (List.map (fun (s, t) -> (s.Frequent.set, t.Frequent.set)) r.pairs),
    (side r.s, side r.t, r.pair_stats.Cfq_core.Pairs.checks),
    (Io_stats.scans r.io, Io_stats.pages_read r.io) )

let prop_default_equals_sequential (n, seed, rows, q) =
  let sets = Helpers.seeded_rows ~seed ~n rows in
  let ctx db = Cfq_core.Exec.context db (Helpers.small_info n) in
  List.for_all
    (fun backend ->
      with_backend backend sets (fun db ->
          List.for_all
            (fun (kname, kernel) ->
              let run ?par () =
                Cfq_core.Exec.run_result ~collect_pairs:true ?par ~kernel (ctx db) q
              in
              let clean = (run (), run ~par:Counting.sequential ()) in
              let faulted par =
                Tx_db.set_faults db
                  (Some
                     (Fault.create
                        { Fault.default_config with corrupt_p = 0.5; seed = Int64.of_int seed }));
                Fun.protect ~finally:(fun () -> Tx_db.set_faults db None) (fun () ->
                    Result.map fingerprint (run ?par ()))
              in
              match (clean, faulted None, faulted (Some Counting.sequential)) with
              (* a run that scans meets the corrupted page; an
                 unsatisfiable query reads nothing *)
              | (Ok d, Ok s), f, f'
                when fingerprint d = fingerprint s && f = f'
                     && (Io_stats.scans s.Cfq_core.Exec.io = 0
                        || match f with Error (Cfq_error.Corrupt_page _) -> true | _ -> false) ->
                  true
              | _ -> QCheck2.Test.fail_reportf "%s, %s: the default diverged" backend kname)
            Counting.all_kernels))
    [ "memory"; "sharded"; "store" ]

let with_pool f =
  let pool = Cfq_exec_pool.Pool.create ~domains:2 ~queue_capacity:8 () in
  Fun.protect ~finally:(fun () -> Cfq_exec_pool.Pool.shutdown pool) (fun () -> f pool)

let borrowed_helpers_from_a_shut_down_pool () =
  (* borrowing from a dead or saturated pool must degrade to fewer
     participants, never fail the count *)
  let pool = Cfq_exec_pool.Pool.create ~domains:1 ~queue_capacity:1 () in
  Cfq_exec_pool.Pool.shutdown pool;
  let db = db_of_lists (List.init 20 (fun i -> [ i mod 4; 4 ])) in
  let cands = [| Itemset.of_list [ 4 ] |] in
  let io = Io_stats.create () in
  let counts =
    count
      ~par:(Counting.par ~pool ~min_rows_per_domain:1 4)
      db io
      [ (Counters.create (), cands) ]
  in
  Alcotest.(check (list (array int))) "counted by the caller alone" [ [| 20 |] ] counts;
  Alcotest.(check int) "one scan" 1 (Io_stats.scans io)

let suite =
  [
    Helpers.qtest ~count:60 "count_pass parallel equals sequential (spawned)"
      gen_input print_input
      (prop_parallel_equals_sequential None);
    Helpers.qtest ~count:30 "count_pass parallel equals sequential (pool-borrowed)"
      gen_input print_input
      (fun input -> with_pool (fun pool -> prop_parallel_equals_sequential (Some pool) input));
    unit "empty candidate families skip the scan" empty_families_skip_the_scan;
    unit "parallel scan respects the fault layer" parallel_scan_respects_the_fault_layer;
    unit "scan chunks are page-aligned and cover the scan" chunks_cover_the_scan;
    Helpers.qtest ~count:30 "fused grid: every kernel x domain count mines identically"
      gen_grid print_grid prop_fused_kernel_domain_grid;
    unit "sharded direct2 mine charges the same at every width"
      sharded_direct2_charges_are_width_independent;
    unit "Exec.run parallel equals sequential" exec_run_parallel_equals_sequential;
    unit "default work floor is result-identical" default_work_floor_is_result_identical;
    unit "borrowing from a shut-down pool degrades gracefully"
      borrowed_helpers_from_a_shut_down_pool;
    unit "Exec.run fans out by default on 4,096 rows" default_fans_out_on_a_large_db;
    unit "Exec.run stays sequential by default on 60 rows"
      default_is_sequential_on_a_small_db;
    Helpers.qtest ~count:16 "Exec.run at its default equals sequential on every backend"
      gen_default_input print_default_input prop_default_equals_sequential;
  ]
