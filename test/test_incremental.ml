(* FUP incremental maintenance and parallel counting. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

let frequent_equal a b =
  Frequent.n_sets a = Frequent.n_sets b
  && Frequent.fold
       (fun acc e -> acc && Frequent.support b e.Frequent.set = Some e.Frequent.support)
       true a

let union_db a b =
  let txs = ref [] in
  for i = Tx_db.size b - 1 downto 0 do
    txs := (Tx_db.get b i).Transaction.items :: !txs
  done;
  for i = Tx_db.size a - 1 downto 0 do
    txs := (Tx_db.get a i).Transaction.items :: !txs
  done;
  Tx_db.create (Array.of_list !txs)

let mine db n frac =
  let io = Io_stats.create () in
  let minsup = Tx_db.absolute_support db frac in
  (Apriori.mine db (Helpers.small_info n) io ~minsup ()).Apriori.frequent

let gen_two_dbs =
  QCheck2.Gen.(
    let* n = Helpers.gen_universe_size in
    let* txs1 = Helpers.gen_db_lists n in
    let* txs2 = list_size (int_range 1 25) (Helpers.gen_tx n) in
    return (n, Helpers.db_of_lists txs1, Helpers.db_of_lists txs2))

let print_two (n, a, b) =
  Printf.sprintf "%s + delta(%d txs)" (Helpers.print_db (n, a)) (Tx_db.size b)

let suite =
  [
    Helpers.qtest ~count:150 "FUP update equals re-mining the union" gen_two_dbs
      print_two (fun (n, old_db, delta) ->
        let frac = 0.2 in
        let old_frequent = mine old_db n frac in
        let io = Io_stats.create () in
        let outcome =
          Incremental.update ~old_db ~old_frequent ~delta io ~minsup_frac:frac
            ~universe_size:n
        in
        frequent_equal outcome.Incremental.frequent (mine (union_db old_db delta) n frac));
    Helpers.qtest ~count:80 "FUP scans the old database at most once" gen_two_dbs
      print_two (fun (n, old_db, delta) ->
        let frac = 0.25 in
        let old_frequent = mine old_db n frac in
        let io = Io_stats.create () in
        let outcome =
          Incremental.update ~old_db ~old_frequent ~delta io ~minsup_frac:frac
            ~universe_size:n
        in
        outcome.Incremental.old_scans <= 1);
    unit "a delta that changes nothing touches only the increment" (fun () ->
        let old_db = Helpers.db_of_lists [ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ]; [ 2 ] ] in
        (* the delta repeats an existing frequent pattern: no new candidates *)
        let delta = Helpers.db_of_lists [ [ 0; 1 ] ] in
        let old_frequent = mine old_db 3 0.5 in
        let io = Io_stats.create () in
        let outcome =
          Incremental.update ~old_db ~old_frequent ~delta io ~minsup_frac:0.5
            ~universe_size:3
        in
        Alcotest.(check int) "no old scans" 0 outcome.Incremental.old_scans;
        Alcotest.(check int) "nothing counted against old" 0
          outcome.Incremental.counted_against_old;
        Alcotest.(check (option int)) "updated support" (Some 4)
          (Frequent.support outcome.Incremental.frequent (Itemset.of_list [ 0; 1 ])));
    unit "a delta can promote a new set" (fun () ->
        let old_db = Helpers.db_of_lists [ [ 0 ]; [ 0 ]; [ 1; 2 ]; [ 0 ] ] in
        let delta = Helpers.db_of_lists [ [ 1; 2 ]; [ 1; 2 ]; [ 1; 2 ]; [ 1; 2 ] ] in
        let old_frequent = mine old_db 3 0.5 in
        Alcotest.(check bool) "{1,2} not old-frequent" false
          (Frequent.mem old_frequent (Itemset.of_list [ 1; 2 ]));
        let io = Io_stats.create () in
        let outcome =
          Incremental.update ~old_db ~old_frequent ~delta io ~minsup_frac:0.5
            ~universe_size:3
        in
        Alcotest.(check (option int)) "{1,2} promoted with exact support" (Some 5)
          (Frequent.support outcome.Incremental.frequent (Itemset.of_list [ 1; 2 ])));
    Helpers.qtest ~count:80 "parallel counting equals sequential counting"
      (QCheck2.Gen.pair Helpers.gen_db
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 8) (Helpers.gen_itemset 7)))
      (fun ((n, db), cands) ->
        Helpers.print_db (n, db) ^ Printf.sprintf " (%d cands)" (List.length cands))
      (fun ((_, db), cands) ->
        let cands = Array.of_list (List.sort_uniq Itemset.compare cands) in
        let io = Io_stats.create () in
        let count ?par () =
          Counting.count_pass ?par db io [ (Counters.create (), Candidate.Sets cands) ]
          |> List.map Counting.counts
        in
        count () = count ~par:(Counting.par ~min_rows_per_domain:1 3) ());
    unit "parallel counting charges one scan" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 1 ]; [ 0 ] ] in
        let io = Io_stats.create () in
        let _ =
          Counting.count_pass
            ~par:(Counting.par ~min_rows_per_domain:1 4)
            db io
            [ (Counters.create (), Candidate.Sets [| Itemset.of_list [ 0 ] |]) ]
        in
        Alcotest.(check int) "one scan" 1 (Io_stats.scans io));
  ]
