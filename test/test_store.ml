(* The persistent store: page-codec round-trips (qcheck), torn-tail WAL
   recovery, buffer-pool eviction/pinning, fault injection on the disk
   backend, and end-to-end backend equivalence of answers and counters. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_store

let unit name f = Alcotest.test_case name `Quick f

let tmp () = Filename.temp_file "cfq_store_test" ".cfqdb"

(* a tiny page: 14 items fill it exactly (8 + 14*4 = 64), 15+ are oversized *)
let small_pm = Page_model.make ~page_size_bytes:64 ()

let sets_of_lists ls = Array.of_list (List.map Itemset.of_list ls)

let db_pair ?page_model lists =
  let sets = sets_of_lists lists in
  let path = tmp () in
  Store.build ?page_model path sets;
  let store = Store.open_ ~cache_pages:2 path in
  (Tx_db.create ?page_model sets, store)

let all_txs db =
  List.init (Tx_db.size db) (fun i ->
      let tx = Tx_db.get db i in
      (tx.Transaction.tid, Itemset.to_list tx.Transaction.items))

(* an injector with no active failure modes still drives the checksum
   verification walk, so [verify] really recomputes page checksums *)
let verify_checksums db =
  Tx_db.set_faults db (Some (Fault.create Fault.default_config));
  let r = Tx_db.verify db in
  Tx_db.set_faults db None;
  r

let check_equivalent ?page_model lists =
  let mem, store = db_pair ?page_model lists in
  let disk = Store.db store in
  Alcotest.(check int) "size" (Tx_db.size mem) (Tx_db.size disk);
  Alcotest.(check int) "pages" (Tx_db.pages mem) (Tx_db.pages disk);
  for i = 0 to Tx_db.size mem - 1 do
    Alcotest.(check int) "page_of" (Tx_db.page_of_tx mem i) (Tx_db.page_of_tx disk i)
  done;
  Alcotest.(check (list (pair int (list int)))) "transactions" (all_txs mem)
    (all_txs disk);
  Alcotest.(check (float 1e-9)) "avg_tx_len" (Tx_db.avg_tx_len mem)
    (Tx_db.avg_tx_len disk);
  (match verify_checksums disk with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %s" (Cfq_error.to_string e));
  Store.close store

(* ------------------------------------------------------------------ *)
(* qcheck: encode -> decode is identity, including empty itemsets,
   max-width pages (a tx exactly filling a page) and oversized txs *)

let gen_store_db =
  QCheck2.Gen.(
    let tx =
      oneof
        [
          return [];  (* empty itemset *)
          list_size (int_range 1 10) (int_range 0 99);
          (* exactly page-filling under small_pm: 14 distinct items *)
          return (List.init 14 (fun i -> i * 3));
          (* oversized: spans dedicated pages *)
          list_size (int_range 20 40) (int_range 0 99);
        ]
    in
    list_size (int_range 0 30) tx)

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"store round-trip = identity (small pages)" ~count:60
       ~print:(fun ls ->
         String.concat ";"
           (List.map (fun l -> Itemset.to_string (Itemset.of_list l)) ls))
       gen_store_db
       (fun lists ->
         let sets = sets_of_lists lists in
         let path = tmp () in
         Store.build ~page_model:small_pm path sets;
         let store = Store.open_ ~cache_pages:3 path in
         let disk = Store.db store in
         let mem = Tx_db.create ~page_model:small_pm sets in
         let ok =
           all_txs mem = all_txs disk
           && Tx_db.pages mem = Tx_db.pages disk
           && verify_checksums disk = Ok ()
         in
         Store.close store;
         Sys.remove path;
         ok))

(* ------------------------------------------------------------------ *)
(* page-level verify seam (the scrubber substrate) *)

let read_file path =
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Bytes.of_string b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let flip_byte path off =
  let b = read_file path in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  write_file path b

let fault_names fs =
  List.map
    (fun f -> (f.Store.pf_page, Store.page_fault_kind_name f.Store.pf_kind))
    fs

let verify_sets =
  [ [ 1; 2; 3 ]; [ 4; 5 ]; List.init 14 (fun i -> i); [ 6 ]; [ 7; 8 ] ]

let verify_pages_finds_bad_crc () =
  let path = tmp () in
  Store.build ~page_model:small_pm path (sets_of_lists verify_sets);
  let store = Store.open_ ~cache_pages:2 path in
  Alcotest.(check (list (pair int string))) "clean store verifies clean" []
    (fault_names (Store.verify_pages store));
  let throttled = ref 0 in
  ignore (Store.verify_pages ~throttle:(fun ~page:_ -> incr throttled) store);
  Alcotest.(check int) "throttle sees every data page" (Store.pages store)
    !throttled;
  (* rot a byte inside data page 1 (pages are 64 bytes; page 0 of data
     starts one page in) — the raw CRC must catch it *)
  flip_byte path (64 + 64 + 5);
  Alcotest.(check (list (pair int string))) "bad crc pinned to page 1"
    [ (1, "bad-crc") ]
    (fault_names (Store.verify_pages store));
  Store.close store

(* flip the low bit of the data byte at [at] (from the start of the data
   region, 64-byte pages) and re-patch the page's footer CRC: the raw
   layer is fooled, the record checks and logical checksum are not *)
let tamper_crc_consistent path ~at =
  let ps = 64 in
  (* geometry probe: open_ loads the footer tables into memory, so the
     tampering below must happen before the verifying handle opens *)
  let n, n_pages =
    let st = Store.open_ ~cache_pages:1 path in
    let g = (Store.size st, Store.pages st) in
    Store.close st;
    g
  in
  let b = read_file path in
  let off = ps + at in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  (* fix up footer: crcs[page], then the footer's own CRC *)
  let page = at / ps in
  let poff = ps + (page * ps) in
  let footer_off = ps + (n_pages * ps) in
  let o1 = 4 * n in
  let o3 = o1 + (4 * n_pages) + (8 * n_pages) in
  Bytes.set_int32_le b
    (footer_off + o1 + (4 * page))
    (Int32.of_int (Crc32.sub b poff ps));
  let footer = Bytes.sub b footer_off (o3 + 4) in
  Bytes.set_int32_le b (footer_off + o3) (Int32.of_int (Crc32.sub footer 0 o3));
  write_file path b

let verify_pages_finds_bad_checksum () =
  let path = tmp () in
  Store.build ~page_model:small_pm path (sets_of_lists verify_sets);
  (* tamper a tid byte of page 0 *)
  tamper_crc_consistent path ~at:0;
  let store = Store.open_ ~cache_pages:2 path in
  Alcotest.(check (list (pair int string))) "bad checksum pinned to page 0"
    [ (0, "bad-checksum") ]
    (fault_names (Store.verify_pages store));
  Store.close store

(* the bitwise CRC-32 the slicing-by-8 tables must reproduce *)
let crc32_bitwise b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let crc32_known_answer () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.bytes (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty" 0 (Crc32.bytes Bytes.empty)

let qcheck_crc32_slices =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"crc32 slicing-by-8 equals the bitwise CRC" ~count:300
       ~print:(fun (s, a, b) -> Printf.sprintf "%S off=%d len=%d" s a b)
       QCheck2.Gen.(triple (string_size (int_range 0 80)) nat nat)
       (fun (s, a, b) ->
         let b_ = Bytes.of_string s in
         let n = Bytes.length b_ in
         let off = if n = 0 then 0 else a mod (n + 1) in
         let len = if n - off = 0 then 0 else b mod (n - off + 1) in
         Crc32.sub b_ off len = crc32_bitwise b_ off len))

(* 4 two-item transactions fill a 64-byte page; one oversized transaction
   spans dedicated pages *)
let scan_sets =
  List.init 10 (fun i -> [ i; i + 1 ])
  @ [ List.init 30 (fun i -> 2 * i) ]
  @ List.init 5 (fun i -> [ i ])

let cached_scan_one_lookup_per_page () =
  let path = tmp () in
  Store.build ~page_model:small_pm path (sets_of_lists scan_sets);
  let store = Store.open_ ~cache_pages:64 path in
  let db = Store.db store in
  let lookups () =
    Io_stats.pool_hits (Store.io store) + Io_stats.pool_misses (Store.io store)
  in
  let io = Io_stats.create () in
  Tx_db.iter_scan db io (fun _ -> ());
  Alcotest.(check int) "cold scan: one miss per page" (Tx_db.pages db) (lookups ());
  let n = ref 0 in
  Tx_db.iter_scan db io (fun _ -> incr n);
  Alcotest.(check int) "every tuple delivered" (Tx_db.size db) !n;
  Alcotest.(check bool) "several tuples share a page" true (Tx_db.pages db < Tx_db.size db);
  Alcotest.(check int) "warm scan: one lookup per page" (2 * Tx_db.pages db) (lookups ());
  Store.close store

(* under an injector, with no failure mode active, a scan still verifies
   every page's checksum before delivering it, from one read of the page:
   one pool lookup per page, as without an injector *)
let checked_scan_one_lookup_per_page () =
  let path = tmp () in
  Store.build ~page_model:small_pm path (sets_of_lists scan_sets);
  let store = Store.open_ ~cache_pages:64 path in
  let db = Store.db store in
  let lookups () =
    Io_stats.pool_hits (Store.io store) + Io_stats.pool_misses (Store.io store)
  in
  Tx_db.set_faults db (Some (Fault.create Fault.default_config));
  let got = ref [] in
  Tx_db.iter_scan db (Io_stats.create ()) (fun tx ->
      got := Itemset.to_list tx.Transaction.items :: !got);
  Alcotest.(check (list (list int))) "every transaction delivered" scan_sets (List.rev !got);
  Alcotest.(check int) "scan: one lookup per page" (Tx_db.pages db) (lookups ());
  let n = ref 0 in
  Tx_db.rows_checked db ~lo:0 ~hi:(Tx_db.size db - 1) (fun _ _ _ -> incr n);
  Alcotest.(check int) "checked rows: every row" (Tx_db.size db) !n;
  Alcotest.(check int) "checked rows: one lookup per page" (2 * Tx_db.pages db) (lookups ());
  Store.close store

(* items must be strictly increasing: a CRC-consistent swap of order is
   a typed corrupt page, not a silently wrong transaction *)
let unsorted_record_is_corrupt () =
  let path = tmp () in
  Store.build ~page_model:small_pm path (sets_of_lists scan_sets);
  (* transaction 0 is [0; 1]: its second item (bytes 12..15) becomes 0 *)
  tamper_crc_consistent path ~at:12;
  let store = Store.open_ ~cache_pages:4 path in
  (match Tx_db.iter_range (Store.db store) ~lo:0 ~hi:0 ignore with
  | () -> Alcotest.fail "unsorted record went undetected"
  | exception Cfq_error.Error (Cfq_error.Corrupt_page { page }) ->
      Alcotest.(check int) "page" 0 page);
  Store.close store

(* a record fault in the middle of a page surfaces typed, after the page's
   earlier transactions were delivered — where a failover resumes *)
let mid_page_fault_delivers_prefix () =
  let path = tmp () in
  Store.build ~page_model:small_pm path (sets_of_lists scan_sets);
  (* the tid of transaction 1 (bytes 16..19 of page 0) *)
  tamper_crc_consistent path ~at:16;
  let store = Store.open_ ~cache_pages:4 path in
  let delivered = ref [] in
  (match
     Tx_db.iter_range (Store.db store) ~lo:0 ~hi:3 (fun tx ->
         delivered := tx.Transaction.tid :: !delivered)
   with
  | () -> Alcotest.fail "tampered record went undetected"
  | exception Cfq_error.Error (Cfq_error.Corrupt_page { page }) ->
      Alcotest.(check int) "page" 0 page);
  Alcotest.(check (list int)) "prefix delivered" [ 0 ] (List.rev !delivered);
  Store.close store

(* Scan resistance: a pool of C frames under repeated full scans of N > C
   pages keeps C - 1 of them from one scan to the next, whatever C is.
   Every scan still delivers every transaction intact. *)
let cyclic_scans_keep_pool_pages () =
  let n_pages = 9 in
  let path = tmp () in
  (* one full page per transaction *)
  let sets = Array.init n_pages (fun t -> Itemset.of_list (List.init 14 (fun i -> (14 * t) + i))) in
  Store.build ~page_model:small_pm path sets;
  List.iter
    (fun c ->
      let store = Store.open_ ~cache_pages:c path in
      let db = Store.db store and pool = Store.io store in
      Alcotest.(check int) "pages" n_pages (Tx_db.pages db);
      let scan () =
        let hits = Io_stats.pool_hits pool and misses = Io_stats.pool_misses pool in
        let got = ref [] in
        Tx_db.iter_scan db (Io_stats.create ()) (fun tx -> got := tx.Transaction.items :: !got);
        Alcotest.(check bool) "every transaction delivered" true
          (Array.to_list sets = List.rev !got);
        (Io_stats.pool_hits pool - hits, Io_stats.pool_misses pool - misses)
      in
      let cold_hits, cold_misses = scan () in
      Alcotest.(check (pair int int)) (Printf.sprintf "C=%d cold scan" c) (0, n_pages)
        (cold_hits, cold_misses);
      for k = 1 to 3 do
        let hits, misses = scan () in
        let what = Printf.sprintf "C=%d warm scan %d" c k in
        Alcotest.(check bool) (what ^ ": >= C-1 hits") true (hits >= c - 1);
        Alcotest.(check int) (what ^ ": one lookup per page") n_pages (hits + misses)
      done;
      Store.close store)
    [ 1; 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* fuzz: arbitrary truncations and bit-flips over the WAL must yield a
   successful recovery of a record prefix — never an exception and never
   a store that fails verification *)

let wal_fuzz_sets = List.init 12 (fun i -> [ i mod 9; (i + 2) mod 9 ])

let build_wal_victim path =
  let store = Store.create ~page_model:small_pm path in
  Store.append_tx store (Itemset.of_list [ 0; 3 ]);
  ignore (Store.seal store);
  List.iter (fun l -> Store.append_tx store (Itemset.of_list l)) wal_fuzz_sets;
  Store.flush store;
  Store.close store (* crash before seal: records live only in the WAL *)

let wal_fuzz_outcome mutate =
  let path = tmp () in
  build_wal_victim path;
  mutate (path ^ ".wal");
  let outcome =
    match Store.open_ path with
    | store ->
        let size = Store.size store in
        let ok =
          size >= 1
          && size <= 1 + List.length wal_fuzz_sets
          && verify_checksums (Store.db store) = Ok ()
        in
        Store.close store;
        if ok then Ok size else Error "inconsistent recovered store"
    | exception Cfq_error.Error e -> Error (Cfq_error.to_string e)
    | exception Segment.Bad_segment m -> Error ("bad segment: " ^ m)
  in
  Sys.remove path;
  (try Sys.remove (path ^ ".wal") with Sys_error _ -> ());
  outcome

let qcheck_wal_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"WAL fuzz: truncation/bit-flip recovers typed"
       ~count:60
       ~print:(fun (frac, bit) -> Printf.sprintf "frac=%f bit=%d" frac bit)
       QCheck2.Gen.(pair (float_bound_inclusive 1.) (int_bound 4095))
       (fun (frac, bit) ->
         let outcome =
           wal_fuzz_outcome (fun wal ->
               let size = (Unix.stat wal).Unix.st_size in
               let cut = int_of_float (frac *. float_of_int size) in
               if bit mod 2 = 0 then Unix.truncate wal (min cut size)
               else if size > 0 then flip_byte wal (bit * 97 mod size))
         in
         (* the WAL is the recovery domain: damage there must never make
            open_ raise — the typed-error escape hatch is for the segment *)
         match outcome with
         | Ok _ -> true
         | Error m -> QCheck2.Test.fail_reportf "WAL fuzz outcome: %s" m))

(* ------------------------------------------------------------------ *)

let suite =
  [
    unit "round-trip, default page model" (fun () ->
        check_equivalent [ [ 0; 1; 2 ]; [ 1; 2 ]; []; [ 2 ]; [ 0; 1; 2; 3 ] ]);
    unit "round-trip, multi-page and oversized" (fun () ->
        check_equivalent ~page_model:small_pm
          [
            List.init 14 (fun i -> i);  (* max-width page *)
            [ 3; 5 ];
            List.init 30 (fun i -> 2 * i);  (* oversized: 128 bytes *)
            [];
            List.init 7 (fun i -> i + 50);
            [ 9 ];
          ]);
    qcheck_roundtrip;
    unit "empty store" (fun () ->
        let path = tmp () in
        let store = Store.create path in
        Alcotest.(check int) "size" 0 (Store.size store);
        Alcotest.(check int) "pages" 0 (Store.pages store);
        Alcotest.(check (list (pair int (list int)))) "txs" [] (all_txs (Store.db store));
        Store.close store);
    unit "append + seal makes transactions durable" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1; 2; 3 ]);
        Store.append_tx store Itemset.empty;
        Store.append_tx store (Itemset.of_list [ 7 ]);
        Alcotest.(check int) "not yet visible" 0 (Store.size store);
        Alcotest.(check int) "sealed" 3 (Store.seal store);
        Alcotest.(check int) "visible" 3 (Store.size store);
        Alcotest.(check (list (pair int (list int)))) "content"
          [ (0, [ 1; 2; 3 ]); (1, []); (2, [ 7 ]) ]
          (all_txs (Store.db store));
        Store.close store;
        (* reopen: still there, nothing to recover *)
        let store = Store.open_ path in
        Alcotest.(check int) "after reopen" 3 (Store.size store);
        Alcotest.(check int) "replayed" 0 (Store.last_recovery store).Store.replayed;
        Store.close store);
    unit "recovery replays unsealed WAL records" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1; 2 ]);
        Store.append_tx store (Itemset.of_list [ 4 ]);
        Store.flush store;
        (* no seal: simulate a crash by just dropping the handle's state *)
        Store.close store;
        let store = Store.open_ path in
        Alcotest.(check int) "replayed" 2 (Store.last_recovery store).Store.replayed;
        Alcotest.(check int) "size" 2 (Store.size store);
        Alcotest.(check (list (pair int (list int)))) "content"
          [ (0, [ 1; 2 ]); (1, [ 4 ]) ]
          (all_txs (Store.db store));
        Store.close store);
    unit "recovery truncates a torn WAL tail" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1; 2 ]);
        Store.append_tx store (Itemset.of_list [ 4; 5 ]);
        Store.append_tx store (Itemset.of_list [ 6; 7; 8 ]);
        Store.close store;
        (* tear mid-record: chop the last 3 bytes of the log *)
        let wal = path ^ ".wal" in
        let size = (Unix.stat wal).Unix.st_size in
        Unix.truncate wal (size - 3);
        let store = Store.open_ path in
        let r = Store.last_recovery store in
        Alcotest.(check int) "replayed" 2 r.Store.replayed;
        Alcotest.(check bool) "truncated" true (r.Store.truncated_bytes > 0);
        Alcotest.(check (list (pair int (list int)))) "prefix survives"
          [ (0, [ 1; 2 ]); (1, [ 4; 5 ]) ]
          (all_txs (Store.db store));
        (match verify_checksums (Store.db store) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "verify: %s" (Cfq_error.to_string e));
        Store.close store);
    unit "recovery drops a CRC-corrupt WAL record" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1 ]);
        Store.append_tx store (Itemset.of_list [ 2 ]);
        Store.close store;
        (* flip one payload byte of the last record *)
        let wal = path ^ ".wal" in
        let size = (Unix.stat wal).Unix.st_size in
        let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0 in
        ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
        ignore (Unix.write fd (Bytes.of_string "\xFF") 0 1);
        Unix.close fd;
        let store = Store.open_ path in
        Alcotest.(check int) "replayed" 1 (Store.last_recovery store).Store.replayed;
        Alcotest.(check bool) "torn bytes counted" true
          ((Store.last_recovery store).Store.truncated_bytes > 0);
        Store.close store);
    unit "recovery is idempotent: a stale-generation WAL is not replayed" (fun () ->
        (* simulate the worst crash window: the fold's rename became
           durable but the WAL reset did not.  After recovery we put the
           pre-recovery WAL bytes back verbatim; its header generation
           now trails the segment's, so reopening must NOT duplicate. *)
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1; 2 ]);
        Store.append_tx store (Itemset.of_list [ 4 ]);
        Store.flush store;
        Store.close store;
        let wal = path ^ ".wal" in
        let old_wal =
          let ic = open_in_bin wal in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let store = Store.open_ path in
        Alcotest.(check int) "first recovery replays" 2
          (Store.last_recovery store).Store.replayed;
        Store.close store;
        let oc = open_out_bin wal in
        output_string oc old_wal;
        close_out oc;
        let store = Store.open_ path in
        Alcotest.(check int) "second recovery replays nothing" 0
          (Store.last_recovery store).Store.replayed;
        Alcotest.(check int) "no duplicated transactions" 2 (Store.size store);
        Alcotest.(check (list (pair int (list int)))) "content intact"
          [ (0, [ 1; 2 ]); (1, [ 4 ]) ]
          (all_txs (Store.db store));
        Store.close store);
    unit "seal bumps the segment generation and re-stamps the WAL" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1 ]);
        ignore (Store.seal store);
        Store.append_tx store (Itemset.of_list [ 2 ]);
        ignore (Store.seal store);
        Store.close store;
        let seg = Segment.open_ path in
        Alcotest.(check int) "two seals = generation 2" 2 seg.Segment.generation;
        Segment.close seg;
        let s = Wal.scan (path ^ ".wal") in
        Alcotest.(check (option int)) "WAL stamped with the live generation"
          (Some 2) s.Wal.generation;
        Alcotest.(check int) "WAL emptied" 0 (List.length s.Wal.records));
    unit "a db handle from before a seal stays readable" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm path in
        Store.append_tx store (Itemset.of_list [ 1; 2 ]);
        ignore (Store.seal store);
        let before = Store.db store in
        (* warm nothing: force the pre-seal pool to do a physical read
           strictly AFTER the seal has replaced segment and pool *)
        Store.append_tx store (Itemset.of_list [ 7; 8 ]);
        ignore (Store.seal store);
        Alcotest.(check (list (pair int (list int)))) "old snapshot served"
          [ (0, [ 1; 2 ]) ]
          (List.init (Tx_db.size before) (fun i ->
               let tx = Tx_db.get before i in
               (tx.Transaction.tid, Itemset.to_list tx.Transaction.items)));
        Alcotest.(check (list (pair int (list int)))) "new handle sees the seal"
          [ (0, [ 1; 2 ]); (1, [ 7; 8 ]) ]
          (all_txs (Store.db store));
        Store.close store);
    unit "group commit batches fsyncs" (fun () ->
        let path = tmp () in
        let store = Store.create ~page_model:small_pm ~group_commit:8 path in
        for i = 0 to 19 do
          Store.append_tx store (Itemset.of_list [ i ])
        done;
        Store.flush store;
        let appended, fsyncs = Store.wal_counters store in
        Alcotest.(check int) "appended" 20 appended;
        Alcotest.(check int) "fsyncs: 2 full groups + 1 flush" 3 fsyncs;
        Store.close store);
    unit "buffer pool: clock eviction and hit accounting" (fun () ->
        let path = tmp () in
        (* 6 txs of 14 items: one full page each *)
        Store.build ~page_model:small_pm path
          (Array.init 6 (fun t -> Itemset.of_list (List.init 14 (fun i -> (14 * t) + i))));
        let store = Store.open_ ~cache_pages:2 path in
        let db = Store.db store in
        Alcotest.(check int) "pages" 6 (Tx_db.pages db);
        let io = Io_stats.create () in
        let n = ref 0 in
        Tx_db.iter_scan db io (fun _ -> incr n);
        Alcotest.(check int) "cold scan tuples" 6 !n;
        Alcotest.(check int) "cold misses = pages" 6 (Io_stats.pool_misses (Store.io store));
        Alcotest.(check bool) "evictions under pressure" true
          (Io_stats.pool_evictions (Store.io store) > 0);
        Tx_db.iter_scan db io (fun _ -> ());
        Alcotest.(check bool) "second scan still misses (cache < pages)" true
          (Io_stats.pool_misses (Store.io store) > 6);
        Store.close store;
        (* a pool large enough: second scan is all hits *)
        let store = Store.open_ ~cache_pages:8 path in
        let db = Store.db store in
        Tx_db.iter_scan db io (fun _ -> ());
        let cold_misses = Io_stats.pool_misses (Store.io store) in
        Tx_db.iter_scan db io (fun _ -> ());
        Alcotest.(check int) "warm scan adds no misses" cold_misses
          (Io_stats.pool_misses (Store.io store));
        Alcotest.(check bool) "warm hits" true (Io_stats.pool_hits (Store.io store) >= 6);
        Store.close store);
    unit "buffer pool: pinned frames survive, bypass serves readers" (fun () ->
        let path = tmp () in
        Store.build ~page_model:small_pm path
          (Array.init 4 (fun t -> Itemset.of_list (List.init 14 (fun i -> (14 * t) + i))));
        let seg = Segment.open_ path in
        let stats = Io_stats.create () in
        let pool =
          Buffer_pool.create ~path ~page_size:64
            ~n_pages:seg.Segment.layout.Page_codec.pages
            ~data_off:(Segment.data_off seg) ~crcs:seg.Segment.crcs ~capacity:1
            ~stats ()
        in
        let snap b = Bytes.to_string b in
        let p0 = ref "" and p1 = ref "" and p0_again = ref "" in
        Buffer_pool.with_page pool 0 (fun b0 ->
            p0 := snap b0;
            (* the only frame is pinned: this read must bypass, not evict *)
            Buffer_pool.with_page pool 1 (fun b1 -> p1 := snap b1);
            p0_again := snap b0);
        Alcotest.(check bool) "pinned page intact" true (!p0 = !p0_again);
        Alcotest.(check bool) "pages differ" true (!p0 <> !p1);
        Alcotest.(check int) "no eviction of a pinned frame" 0
          (Io_stats.pool_evictions stats);
        Alcotest.(check int) "both reads were misses" 2 (Io_stats.pool_misses stats);
        Alcotest.(check int) "page 0 stayed resident" 1 (Buffer_pool.resident pool);
        (* after unpin the frame is reusable *)
        Buffer_pool.with_page pool 1 (fun _ -> ());
        Alcotest.(check int) "now evicted" 1 (Io_stats.pool_evictions stats);
        Buffer_pool.close pool;
        Segment.close seg);
    unit "physical corruption is caught by the page CRC" (fun () ->
        let path = tmp () in
        Store.build ~page_model:small_pm path
          (Array.init 3 (fun t -> Itemset.of_list (List.init 14 (fun i -> (14 * t) + i))));
        (* flip a byte inside data page 1 (file offset: header page + page) *)
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        ignore (Unix.lseek fd (64 + 64 + 10) Unix.SEEK_SET);
        ignore (Unix.write fd (Bytes.of_string "\xA5") 0 1);
        Unix.close fd;
        let store = Store.open_ ~cache_pages:2 path in
        let db = Store.db store in
        let io = Io_stats.create () in
        (match Tx_db.iter_scan db io (fun _ -> ()) with
        | () -> Alcotest.fail "corrupt page went undetected"
        | exception Cfq_error.Error (Cfq_error.Corrupt_page { page }) ->
            Alcotest.(check int) "page" 1 page);
        Store.close store);
    unit "a damaged segment header is rejected" (fun () ->
        let path = tmp () in
        Store.build path [| Itemset.of_list [ 1 ] |];
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        ignore (Unix.write fd (Bytes.of_string "XXXX") 0 4);
        Unix.close fd;
        (match Store.open_ path with
        | _ -> Alcotest.fail "bad magic accepted"
        | exception Segment.Bad_segment _ -> ()));
    unit "fault injection behaves identically on the disk backend" (fun () ->
        let lists =
          List.init 32 (fun i -> [ i mod 5; (i + 1) mod 5; (i + 2) mod 5 ])
        in
        let mem, store = db_pair ~page_model:small_pm lists in
        let disk = Store.db store in
        let config =
          { Fault.default_config with Fault.fail_first = 1; corrupt_p = 0.4; max_corrupt = 1 }
        in
        let replay db =
          Tx_db.set_faults db (Some (Fault.create config));
          let out = ref [] in
          for _ = 1 to 6 do
            let io = Io_stats.create () in
            let n = ref 0 in
            (match Tx_db.iter_scan db io (fun _ -> incr n) with
            | () -> out := Printf.sprintf "ok:%d" !n :: !out
            | exception Cfq_error.Error e -> out := Cfq_error.to_string e :: !out)
          done;
          let v =
            match Tx_db.verify db with
            | Ok () -> "verify-ok"
            | Error e -> Cfq_error.to_string e
          in
          Tx_db.set_faults db None;
          List.rev (v :: !out)
        in
        Alcotest.(check (list string)) "same fault replay" (replay mem) (replay disk);
        Store.close store);
    unit "chunked parallel scan from two domains" (fun () ->
        let lists = List.init 40 (fun i -> List.init ((i mod 6) + 1) (fun j -> i + j)) in
        let mem, store = db_pair ~page_model:small_pm lists in
        let disk = Store.db store in
        let total db =
          let io = Io_stats.create () in
          Tx_db.begin_scan db io;
          match Tx_db.scan_chunks db ~max_chunks:2 with
          | [ (lo1, hi1); (lo2, hi2) ] ->
              let count lo hi () =
                let n = ref 0 in
                Tx_db.iter_range db ~lo ~hi (fun tx ->
                    n := !n + Transaction.cardinal tx);
                !n
              in
              let d = Domain.spawn (count lo2 hi2) in
              let a = count lo1 hi1 () in
              a + Domain.join d
          | chunks ->
              List.fold_left
                (fun acc (lo, hi) ->
                  let n = ref 0 in
                  Tx_db.iter_range db ~lo ~hi (fun tx ->
                      n := !n + Transaction.cardinal tx);
                  acc + !n)
                0 chunks
        in
        Alcotest.(check int) "item totals agree" (total mem) (total disk);
        Store.close store);
    unit "save_db round-trips an existing database" (fun () ->
        let sets = sets_of_lists [ [ 1; 2 ]; [ 0 ]; [ 2; 3; 4 ] ] in
        let mem = Tx_db.create sets in
        let path = tmp () in
        Store.save_db path mem;
        let store = Store.open_ path in
        Alcotest.(check (list (pair int (list int)))) "content" (all_txs mem)
          (all_txs (Store.db store));
        Alcotest.(check int) "universe" 5 (Store.universe_size store);
        Store.close store);
    unit "verify_pages: clean pass, throttle, bad crc" verify_pages_finds_bad_crc;
    unit "verify_pages: crc-consistent logical corruption" verify_pages_finds_bad_checksum;
    qcheck_wal_fuzz;
    unit "crc32 known answer" crc32_known_answer;
    qcheck_crc32_slices;
    unit "a fully cached scan looks each page up once" cached_scan_one_lookup_per_page;
    unit "a checked scan looks each page up once" checked_scan_one_lookup_per_page;
    unit "a mid-page record fault delivers the page's prefix"
      mid_page_fault_delivers_prefix;
    unit "an out-of-order record is a typed corrupt page" unsorted_record_is_corrupt;
    unit "cyclic scans keep C-1 pool pages hot" cyclic_scans_keep_pool_pages;
  ]
