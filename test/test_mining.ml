open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_mining

let unit name f = Alcotest.test_case name `Quick f

let frequent_equal a b =
  let to_set f = Itemset.Set.of_list (List.map (fun e -> e.Frequent.set) (Frequent.to_list f)) in
  Itemset.Set.equal (to_set a) (to_set b)
  && Frequent.fold
       (fun acc e -> acc && Frequent.support b e.Frequent.set = Some e.Frequent.support)
       true a

(* the probing definitions of closed/maximal, kept as the reference for
   the delete-one walk in [Frequent] *)
let closed_reference t =
  let l1 = Frequent.l1_items t in
  Frequent.fold
    (fun acc (e : Frequent.entry) ->
      let absorbed =
        Itemset.exists
          (fun i ->
            (not (Itemset.mem i e.Frequent.set))
            && Frequent.support t (Itemset.add i e.Frequent.set) = Some e.Frequent.support)
          l1
      in
      if absorbed then acc else e :: acc)
    [] t
  |> List.rev

let maximal_reference t =
  let l1 = Frequent.l1_items t in
  Frequent.fold
    (fun acc (e : Frequent.entry) ->
      let extendable =
        Itemset.exists
          (fun i ->
            (not (Itemset.mem i e.Frequent.set))
            && Frequent.mem t (Itemset.add i e.Frequent.set))
          l1
      in
      if extendable then acc else e :: acc)
    [] t
  |> List.rev

(* arbitrary collections: not downward closed, supports unrelated to
   containment, a set sometimes recorded twice *)
let gen_collection =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* entries =
      list_size (int_range 0 40)
        (pair (Helpers.gen_itemset n) (int_range 1 4))
    in
    return (List.map (fun (set, support) -> { Frequent.set; support }) entries))

let print_collection entries =
  String.concat " "
    (List.map
       (fun (e : Frequent.entry) ->
         Printf.sprintf "%s@%d" (Itemset.to_string e.Frequent.set) e.Frequent.support)
       entries)

let suite =
  [
    Helpers.qtest ~count:150 "trie counting equals naive subset counting"
      (QCheck2.Gen.pair Helpers.gen_db
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 10) (Helpers.gen_itemset 6)))
      (fun ((n, db), cands) ->
        Helpers.print_db (n, db) ^ " cands="
        ^ String.concat "," (List.map Itemset.to_string cands))
      (fun ((_, db), cands) ->
        (* the engines always dedupe candidates before counting *)
        let cands = Array.of_list (List.sort_uniq Itemset.compare cands) in
        let trie = Trie.build cands in
        let counts = Array.make (Trie.n_candidates trie) 0 in
        for i = 0 to Tx_db.size db - 1 do
          let a = Itemset.unsafe_to_array (Tx_db.get db i).Transaction.items in
          Trie.count_row trie counts a 0 (Array.length a)
        done;
        Array.for_all2
          (fun c cand -> c = Helpers.support_of db cand)
          counts cands);
    unit "trie with duplicate candidates counts each slot" (fun () ->
        let s = Itemset.of_list [ 1; 2 ] in
        let trie = Trie.build [| s; s |] in
        let counts = Array.make (Trie.n_candidates trie) 0 in
        Trie.count_row trie counts [| 0; 1; 2 |] 0 3;
        (* duplicates share a terminal node: only the last registered slot
           is counted, which the engines never rely on (they dedupe) *)
        Alcotest.(check int) "total over slots" 1
          (Array.fold_left ( + ) 0 counts));
    unit "candidate pairs_all" (fun () ->
        let pairs = Candidate.pairs_all [| 3; 1; 2 |] in
        Alcotest.(check int) "C(3,2)" 3 (Array.length pairs);
        Array.iter
          (fun p -> Alcotest.(check int) "size 2" 2 (Itemset.cardinal p))
          pairs);
    unit "candidate pairs_with_witness" (fun () ->
        let pairs = Candidate.pairs_with_witness ~witnesses:[| 1 |] ~items:[| 1; 2; 3 |] in
        let set = Itemset.Set.of_list (Array.to_list pairs) in
        Alcotest.(check int) "two pairs" 2 (Itemset.Set.cardinal set);
        Alcotest.(check bool) "has {1,2}" true
          (Itemset.Set.mem (Itemset.of_list [ 1; 2 ]) set);
        Alcotest.(check bool) "no {2,3}" false
          (Itemset.Set.mem (Itemset.of_list [ 2; 3 ]) set));
    unit "apriori_gen joins and prunes" (fun () ->
        let prev =
          [| [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ]; [ 2; 4 ] |] |> Array.map Itemset.of_list
        in
        let tbl = Itemset.Hashtbl.create 8 in
        Array.iter (fun s -> Itemset.Hashtbl.replace tbl s ()) prev;
        let cands =
          Candidate.apriori_gen ~prev ~prev_mem:(Itemset.Hashtbl.mem tbl)
        in
        (* {1,2,3} survives; {2,3,4} pruned because {3,4} missing *)
        Alcotest.(check int) "one candidate" 1 (Array.length cands);
        Alcotest.(check bool) "is {1,2,3}" true
          (Itemset.equal cands.(0) (Itemset.of_list [ 1; 2; 3 ])));
    Helpers.qtest ~count:100 "apriori_gen = brute candidates"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12) (Helpers.gen_itemset 6))
      (fun sets -> String.concat "," (List.map Itemset.to_string sets))
      (fun sets ->
        (* normalise to a level: keep only size-2 sets, dedupe *)
        let prev =
          List.sort_uniq Itemset.compare (List.filter (fun s -> Itemset.cardinal s = 2) sets)
        in
        let tbl = Itemset.Hashtbl.create 8 in
        List.iter (fun s -> Itemset.Hashtbl.replace tbl s ()) prev;
        let got =
          Candidate.apriori_gen ~prev:(Array.of_list prev)
            ~prev_mem:(Itemset.Hashtbl.mem tbl)
          |> Array.to_list |> List.sort_uniq Itemset.compare
        in
        let expected =
          List.filter
            (fun c ->
              Itemset.cardinal c = 3
              &&
              let all = ref true in
              Itemset.iter_delete_one c (fun sub ->
                  if not (Itemset.Hashtbl.mem tbl sub) then all := false);
              !all)
            (Helpers.all_subsets 6)
        in
        List.length got = List.length expected
        && List.for_all2 Itemset.equal got (List.sort Itemset.compare expected));
    Helpers.qtest ~count:100 "apriori mining equals brute force" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let info = Helpers.small_info n in
        let io = Io_stats.create () in
        let outcome = Apriori.mine db info io ~minsup () in
        let brute =
          Frequent.of_levels
            (List.init n (fun i ->
                 Helpers.brute_frequent db ~n ~minsup
                 |> List.filter (fun s -> Itemset.cardinal s = i + 1)
                 |> List.map (fun s ->
                        { Frequent.set = s; support = Helpers.support_of db s })
                 |> Array.of_list))
        in
        frequent_equal outcome.Apriori.frequent brute);
    Helpers.qtest ~count:100 "one scan per level" Helpers.gen_db Helpers.print_db
      (fun (n, db) ->
        let minsup = max 1 (Tx_db.size db / 5) in
        let info = Helpers.small_info n in
        let io = Io_stats.create () in
        let outcome = Apriori.mine db info io ~minsup () in
        Io_stats.scans io = List.length (Level_stats.rows outcome.Apriori.stats));
    Helpers.qtest ~count:100
      "CAP with an anti-monotone+succinct constraint counts only permitted items"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let info = Helpers.small_info n in
        let minsup = max 1 (Tx_db.size db / 5) in
        let c = One_var.Agg_cmp (Agg.Max, Helpers.price, Cmp.Le, 40.) in
        let bundle = Bundle.compile ~nonneg:true info [ c ] in
        let io = Io_stats.create () in
        let state = Cap.create db info ~minsup bundle in
        let freq = Cap.run state io in
        (* every counted frequent set satisfies the constraint, and all
           valid frequent sets are present *)
        Frequent.fold (fun acc e -> acc && One_var.eval info c e.Frequent.set) true freq
        && List.for_all
             (fun s ->
               (not (One_var.eval info c s))
               || Helpers.support_of db s < minsup
               || Frequent.mem freq s)
             (Helpers.all_subsets n));
    Helpers.qtest ~count:100
      "CAP with a witness constraint finds every valid frequent set"
      Helpers.gen_db Helpers.print_db (fun (n, db) ->
        let info = Helpers.small_info n in
        let minsup = max 1 (Tx_db.size db / 5) in
        (* min(S.Price) <= 20: succinct but not anti-monotone *)
        let c = One_var.Agg_cmp (Agg.Min, Helpers.price, Cmp.Le, 20.) in
        let bundle = Bundle.compile ~nonneg:true info [ c ] in
        let io = Io_stats.create () in
        let state = Cap.create db info ~minsup bundle in
        let freq = Cap.run state io in
        List.for_all
          (fun s ->
            (not (One_var.eval info c s))
            || Helpers.support_of db s < minsup
            || Frequent.mem freq s)
          (Helpers.all_subsets n));
    Helpers.qtest ~count:100 "CAP extra filter is honoured" Helpers.gen_db
      Helpers.print_db (fun (n, db) ->
        let info = Helpers.small_info n in
        let minsup = max 1 (Tx_db.size db / 5) in
        let io = Io_stats.create () in
        let state = Cap.create db info ~minsup (Bundle.unconstrained info) in
        (* anti-monotone filter: sum of prices <= 60 *)
        Cap.set_extra_filter state (fun s -> Item_info.sum_of info Helpers.price s <= 60.);
        let freq = Cap.run state io in
        Frequent.fold
          (fun acc e -> acc && Item_info.sum_of info Helpers.price e.Frequent.set <= 60.)
          true freq
        && List.for_all
             (fun s ->
               Item_info.sum_of info Helpers.price s > 60.
               || Helpers.support_of db s < minsup
               || Frequent.mem freq s)
             (Helpers.all_subsets n));
    unit "max_level caps the lattice" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] ] in
        let info = Helpers.small_info 3 in
        let io = Io_stats.create () in
        let outcome = Apriori.mine db info io ~max_level:2 ~minsup:2 () in
        Alcotest.(check int) "max level 2" 2 (Frequent.max_level outcome.Apriori.frequent));
    unit "frequent accessors" (fun () ->
        let f =
          Frequent.of_levels
            [
              [| { Frequent.set = Itemset.of_list [ 1 ]; support = 3 } |];
              [| { Frequent.set = Itemset.of_list [ 1; 2 ]; support = 2 } |];
              [||];
            ]
        in
        Alcotest.(check int) "max_level drops empty" 2 (Frequent.max_level f);
        Alcotest.(check int) "n_sets" 2 (Frequent.n_sets f);
        Alcotest.(check (option int)) "support" (Some 2)
          (Frequent.support f (Itemset.of_list [ 1; 2 ]));
        Alcotest.(check bool) "l1_items" true
          (Itemset.equal (Frequent.l1_items f) (Itemset.of_list [ 1 ]));
        let g = Frequent.filter (fun s -> Itemset.cardinal s = 1) f in
        Alcotest.(check int) "filtered" 1 (Frequent.n_sets g));
    Helpers.qtest ~count:300 "closed and maximal equal their probing definitions"
      gen_collection print_collection (fun entries ->
        let t = Frequent.of_entries entries in
        let check name got want =
          if print_collection got <> print_collection want then
            QCheck2.Test.fail_reportf "%s:\n got %s\nwant %s" name
              (print_collection got) (print_collection want)
        in
        check "closed" (Frequent.closed t) (closed_reference t);
        check "maximal" (Frequent.maximal t) (maximal_reference t);
        true);
    unit "counters merge" (fun () ->
        let a = Counters.create () in
        let b = Counters.create () in
        Counters.add_support_counted a 5;
        Counters.add_constraint_checks b 7;
        Counters.merge a b;
        Alcotest.(check int) "support" 5 (Counters.support_counted a);
        Alcotest.(check int) "checks" 7 (Counters.constraint_checks a);
        Counters.reset a;
        Alcotest.(check int) "reset" 0 (Counters.support_counted a));
  ]
