(* The Sequential-T-first strategy (Section 5.2's "global maximum M"
   alternative) and the FM counterexample (Section 6.2). *)

open Cfq_itembase
open Cfq_core
open Cfq_mining

let gen_case = QCheck2.Gen.pair Helpers.gen_query Helpers.gen_db
let print_case (q, db) = Query.to_string q ^ " on " ^ Helpers.print_db db

let answer ctx q strategy =
  Helpers.sorted_pairs
    (List.map
       (fun (a, b) -> (a.Frequent.set, b.Frequent.set))
       (Exec.run ~strategy ~collect_pairs:true ctx q).Exec.pairs)

let pairs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s1, t1) (s2, t2) -> Itemset.equal s1 s2 && Itemset.equal t1 t2)
       a b

let unit name f = Alcotest.test_case name `Quick f

let suite =
  [
    Helpers.qtest ~count:150 "sequential answer equals the brute-force semantics"
      gen_case print_case (fun (q, (n, db)) ->
        let info = Helpers.small_info n in
        let ctx = Exec.context db info in
        let brute =
          Helpers.sorted_pairs (Helpers.brute_answer db ~n ~s_info:info ~t_info:info q)
        in
        pairs_equal (answer ctx q Plan.Sequential_t_first) brute);
    Helpers.qtest ~count:100 "full-materialize answer equals the brute-force semantics"
      gen_case print_case (fun (q, (n, db)) ->
        let info = Helpers.small_info n in
        let ctx = Exec.context db info in
        let brute =
          Helpers.sorted_pairs (Helpers.brute_answer db ~n ~s_info:info ~t_info:info q)
        in
        pairs_equal (answer ctx q Plan.Full_materialize) brute);
    Helpers.qtest ~count:100
      "sequential never counts more S-sets than the dovetailed optimizer"
      gen_case print_case (fun (q, (n, db)) ->
        let info = Helpers.small_info n in
        let ctx = Exec.context db info in
        let o = Exec.run ~strategy:Plan.Optimized ctx q in
        let s = Exec.run ~strategy:Plan.Sequential_t_first ctx q in
        (* exact bounds from the completed T lattice prune at least as hard
           as the V^k series *)
        Counters.support_counted s.Exec.s.Exec.counters
        <= Counters.support_counted o.Exec.s.Exec.counters);
    Helpers.qtest ~count:100 "sequential pays scans serially, dovetail shares them"
      gen_case print_case (fun (q, (n, db)) ->
        let info = Helpers.small_info n in
        let ctx = Exec.context db info in
        let o = Exec.run ~strategy:Plan.Optimized ctx q in
        let s = Exec.run ~strategy:Plan.Sequential_t_first ctx q in
        Cfq_txdb.Io_stats.scans s.Exec.io >= Cfq_txdb.Io_stats.scans o.Exec.io);
    unit "FM violates ccc condition 2 (powerset-many checks)" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0; 1; 2 ] ] in
        let n = 6 in
        let info = Helpers.small_info n in
        let q =
          Parser.parse "{(S,T) | freq(S) >= 0.4 & freq(T) >= 0.4 & max(S.Price) <= 40}"
        in
        let ctx = Exec.context db info in
        let fm = Exec.run ~strategy:Plan.Full_materialize ctx q in
        let opt = Exec.run ~strategy:Plan.Optimized ctx q in
        (* FM checks the powerset of each side: >= 2 * (2^6 - 1) checks, far
           beyond the N-per-side of the succinct-pushing optimizer *)
        Alcotest.(check bool) "fm checks >= 2^n - 1" true
          (Counters.constraint_checks fm.Exec.s.Exec.counters >= (1 lsl n) - 1);
        Alcotest.(check bool) "fm counts no more than optimizer" true
          (Counters.support_counted fm.Exec.s.Exec.counters
          <= Counters.support_counted opt.Exec.s.Exec.counters);
        Alcotest.(check int) "same answers" opt.Exec.pair_stats.Pairs.n_pairs
          fm.Exec.pair_stats.Pairs.n_pairs;
        (* FM counts one explicit batch with the trie, whatever the kernel *)
        Alcotest.(check bool) "fm emits no kernel note" false
          (List.exists (fun n -> Astring_contains.contains n "kernel") fm.Exec.notes);
        Alcotest.(check bool) "the optimizer does" true
          (List.exists
             (fun n -> Astring_contains.contains n "counting kernels (direct2)")
             opt.Exec.notes));
    unit "FM refuses large universes" (fun () ->
        let db = Helpers.db_of_lists [ [ 0 ] ] in
        let info = Helpers.small_info 21 in
        let bundle = Cfq_constr.Bundle.unconstrained info in
        Alcotest.check_raises "guard"
          (Invalid_argument "Full_mat.run: universe too large for full materialization")
          (fun () ->
            ignore
              (Full_mat.run db (Cfq_txdb.Io_stats.create ())
                 (Counters.create ()) ~bundle ~minsup:1)));
    unit "sequential exact bound matches the global maximum M" (fun () ->
        (* sum(S.Price) <= sum(T.Price): S lattice candidates must satisfy
           sum <= max over frequent T of sum(T.Price) *)
        let db =
          Helpers.db_of_lists
            [ [ 0; 1 ]; [ 0; 1 ]; [ 2; 3 ]; [ 2; 3 ]; [ 0; 2 ]; [ 1; 3 ] ]
        in
        let info = Helpers.small_info 4 in
        let q =
          Parser.parse
            "{(S,T) | freq(S) >= 0.3 & freq(T) >= 0.3 & sum(S.Price) <= sum(T.Price)}"
        in
        let ctx = Exec.context db info in
        let r = Exec.run ~strategy:Plan.Sequential_t_first ~collect_pairs:true ctx q in
        let brute =
          Helpers.sorted_pairs (Helpers.brute_answer db ~n:4 ~s_info:info ~t_info:info q)
        in
        Alcotest.(check int) "pairs" (List.length brute) r.Exec.pair_stats.Pairs.n_pairs);
  ]
