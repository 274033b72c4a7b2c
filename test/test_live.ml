(* The live ingestion subsystem: FUP promotion math, delta extraction
   accounting, promotion in place, and fault injection during a
   maintenance pass, which must leave the caches on one consistent epoch.
   That a service maintained across seals answers like a cold remine on
   every backend is a step check of test_backends. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_core
open Cfq_service

let expect_ok = function
  | Ok a -> a
  | Error e -> Alcotest.failf "service error: %s" (Service.error_to_string e)

let pair_str answer_pairs =
  let entries =
    List.sort
      (fun ((a1 : Frequent.entry), (b1 : Frequent.entry)) (a2, b2) ->
        match Itemset.compare a1.Frequent.set a2.Frequent.set with
        | 0 -> Itemset.compare b1.Frequent.set b2.Frequent.set
        | c -> c)
      answer_pairs
  in
  String.concat "; "
    (List.map
       (fun ((s : Frequent.entry), (t : Frequent.entry)) ->
         Printf.sprintf "%s@%d,%s@%d"
           (Itemset.to_string s.Frequent.set)
           s.Frequent.support
           (Itemset.to_string t.Frequent.set)
           t.Frequent.support)
       entries)

(* ------------------------------------------------------------------ *)
(* Incremental.promoted_minsup: coverage math *)

let promoted_minsup_units () =
  Alcotest.(check int) "empty base clamps to old" 3
    (Incremental.promoted_minsup ~old_minsup:3 ~base_txs:0 ~union_txs:9);
  Alcotest.(check int) "no growth keeps the threshold" 3
    (Incremental.promoted_minsup ~old_minsup:3 ~base_txs:10 ~union_txs:10);
  Alcotest.(check int) "50% growth scales the slack" 4
    (Incremental.promoted_minsup ~old_minsup:3 ~base_txs:10 ~union_txs:15);
  Alcotest.(check int) "minsup 1 never moves" 1
    (Incremental.promoted_minsup ~old_minsup:1 ~base_txs:4 ~union_txs:400)

(* every relative fraction the old entry answered (ceil(f·base) >= m) must
   still be answered by the promoted threshold (ceil(f·union) >= m') *)
let promoted_minsup_covers () =
  let ceil_frac f n = max 1 (int_of_float (Float.ceil (f *. float_of_int n))) in
  for base = 1 to 20 do
    for growth = 0 to 15 do
      let union = base + growth in
      for m = 1 to base do
        let m' =
          Incremental.promoted_minsup ~old_minsup:m ~base_txs:base
            ~union_txs:union
        in
        for pct = 1 to 100 do
          let f = float_of_int pct /. 100. in
          if ceil_frac f base >= m && ceil_frac f union < m' then
            Alcotest.failf
              "coverage lost: base=%d union=%d m=%d m'=%d f=%.2f" base union m
              m' f
        done
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Incremental.update_abs against a direct mine of the union *)

let frequent_str freq =
  String.concat "; "
    (List.map
       (fun (e : Frequent.entry) ->
         Printf.sprintf "%s@%d" (Itemset.to_string e.Frequent.set) e.Frequent.support)
       (List.sort
          (fun (a : Frequent.entry) b -> Itemset.compare a.Frequent.set b.Frequent.set)
          (Frequent.to_list freq)))

(* one side: old threshold, slack to the union threshold, level cap *)
let gen_side =
  QCheck2.Gen.(
    triple (int_range 1 4) (int_range 0 3) (opt ~ratio:0.4 (int_range 1 3)))

let gen_update =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let* txs = list_size (int_range 12 40) (Helpers.gen_tx n) in
    let* cut_pct = int_range 20 80 in
    let* sides = list_size (int_range 1 4) gen_side in
    let* kernel = oneofl Counting.all_kernels in
    let* domains = oneofl [ 1; 3 ] in
    return (n, txs, cut_pct, sides, (kernel, domains)))

let print_update (n, txs, cut_pct, sides, ((kname, _), domains)) =
  Printf.sprintf "n=%d cut=%d%% kernel=%s domains=%d sides=[%s] txs=%s" n cut_pct kname domains
    (String.concat "; "
       (List.map
          (fun (old_m, slack, cap) ->
            Printf.sprintf "old_m=%d slack=%d cap=%s" old_m slack
              (match cap with None -> "-" | Some k -> string_of_int k))
          sides))
    (String.concat "|" (List.map (fun t -> String.concat "," (List.map string_of_int t)) txs))

let update_abs_equals_union_mine =
  Helpers.qtest ~count:120 "live: update_abs equals mining the union" gen_update
    print_update (fun (n, txs, cut_pct, sides, ((_, kernel), domains)) ->
      let sets = Array.of_list (List.map Itemset.of_list txs) in
      let cut = max 1 (Array.length sets * cut_pct / 100) in
      let cut = min cut (Array.length sets - 1) in
      let old_db = Tx_db.create (Array.sub sets 0 cut) in
      let delta = Tx_db.create (Array.sub sets cut (Array.length sets - cut)) in
      let union_db = Tx_db.create sets in
      let io = Io_stats.create () in
      let mine db ~minsup ~cap =
        Tidset.mine (Tidset.of_db db io ~universe_size:n) ~minsup
        |> Frequent.filter (fun set ->
               match cap with None -> true | Some k -> Itemset.cardinal set <= k)
      in
      let sides =
        List.map
          (fun (old_m, slack, cap) ->
            {
              Incremental.old_frequent = mine old_db ~minsup:old_m ~cap;
              old_minsup = old_m;
              union_minsup = old_m + slack;
              max_level = cap;
            })
          sides
      in
      let run ?par ?session sides =
        let lstats = Level_stats.create () in
        let out =
          Incremental.update_abs ?par ?session ~stats:lstats ~old_db ~delta io
            ~universe_size:n sides
        in
        if out.Incremental.old_scans > 1 then
          QCheck2.Test.fail_reportf "FUP paid %d old scans" out.Incremental.old_scans;
        if out.Incremental.old_scans = 0 && out.Incremental.counted_against_old > 0
        then QCheck2.Test.fail_reportf "counted against old without a scan";
        if
          Level_stats.rows lstats = []
          && List.exists
               (fun s -> Frequent.to_list s.Incremental.old_frequent <> [])
               sides
        then QCheck2.Test.fail_reportf "no Level_stats rows surfaced";
        ( List.map
            (function
              | Ok f -> f
              | Error e ->
                  QCheck2.Test.fail_reportf "side failed: %s" (Printexc.to_string e))
            out.Incremental.frequent,
          out )
      in
      let shared, out = run sides in
      (* the drawn kernel and domains recount the old database exactly as
         the sequential trie does *)
      let drawn, drawn_out =
        run
          ~par:(Counting.par ~min_rows_per_domain:1 domains)
          ~session:(Counting.create_session kernel) sides
      in
      if List.map frequent_str drawn <> List.map frequent_str shared then
        QCheck2.Test.fail_reportf "the drawn kernel and domains promoted other sets";
      if
        drawn_out.Incremental.counted_against_old <> out.Incremental.counted_against_old
        || drawn_out.Incremental.old_scans <> out.Incremental.old_scans
      then
        QCheck2.Test.fail_reportf "the drawn run counted %d in %d old scans, the trie %d in %d"
          drawn_out.Incremental.counted_against_old drawn_out.Incremental.old_scans
          out.Incremental.counted_against_old out.Incremental.old_scans;
      (* the shared pass counts each distinct candidate once: never more
         than the one-side calls together *)
      let alone = List.map (fun side -> run [ side ]) sides in
      let alone_counted =
        List.fold_left (fun acc (_, o) -> acc + o.Incremental.counted_against_old) 0 alone
      in
      if out.Incremental.counted_against_old > alone_counted then
        QCheck2.Test.fail_reportf "shared pass counted %d candidates, one-side calls %d"
          out.Incremental.counted_against_old alone_counted;
      List.iteri
        (fun i (side, (got, (single, _))) ->
          let want =
            mine union_db ~minsup:side.Incremental.union_minsup
              ~cap:side.Incremental.max_level
          in
          let single = List.hd single in
          if frequent_str got <> frequent_str single then
            QCheck2.Test.fail_reportf
              "side %d differs from its one-side call:\n got %s\nwant %s" i
              (frequent_str got) (frequent_str single);
          if frequent_str got <> frequent_str want then
            QCheck2.Test.fail_reportf "side %d incremental mismatch:\n got %s\nwant %s" i
              (frequent_str got) (frequent_str want))
        (List.combine sides (List.combine shared alone));
      true)

(* ------------------------------------------------------------------ *)
(* Source / Delta accounting *)

let source_seal_accounting () =
  let base = Array.init 8 (fun i -> Itemset.of_list [ i mod 3 ]) in
  let src = Cfq_live.Source.of_mem base in
  Alcotest.(check int) "epoch starts at 0" 0 (Cfq_live.Source.epoch src);
  let io = Io_stats.create () in
  Alcotest.(check bool) "nothing pending, no seal" true
    (Cfq_live.Source.seal src io = None);
  for _ = 1 to 5 do
    Cfq_live.Source.append_tx src (Itemset.of_list [ 0; 1 ])
  done;
  Alcotest.(check int) "pending counted" 5 (Cfq_live.Source.pending src);
  let d =
    match Cfq_live.Source.seal src io with
    | Some d -> d
    | None -> Alcotest.fail "seal with pending returned None"
  in
  Alcotest.(check int) "epoch minted" 1 d.Cfq_live.Delta.epoch;
  Alcotest.(check int) "source epoch follows" 1 (Cfq_live.Source.epoch src);
  Alcotest.(check int) "base recorded" 8 d.Cfq_live.Delta.base_txs;
  Alcotest.(check int) "delta size" 5 d.Cfq_live.Delta.delta_txs;
  Alcotest.(check int) "union" 13 (Cfq_live.Delta.union_txs d);
  Alcotest.(check int) "twin holds the delta" 5
    (Tx_db.size d.Cfq_live.Delta.twin);
  Alcotest.(check int) "database grew" 13
    (Tx_db.size (Cfq_live.Source.db src));
  Alcotest.(check bool) "extraction charged a scan" true (Io_stats.scans io >= 1);
  Alcotest.(check bool) "extraction charged delta pages" true
    (Io_stats.pages_read io >= d.Cfq_live.Delta.delta_pages);
  (* the delta pages are a strict subset of the grown database's pages *)
  Alcotest.(check bool) "delta-sized, not database-sized" true
    (d.Cfq_live.Delta.delta_pages
    <= Tx_db.pages (Cfq_live.Source.db src));
  Alcotest.(check int) "pending reset" 0 (Cfq_live.Source.pending src)

(* ------------------------------------------------------------------ *)
(* fault injection during maintenance: promote-or-evict, never stale *)

let fault_during_maintenance () =
  (* base makes {0},{1},{0,1} frequent.  The delta makes {2} frequent
     inside the increment at the low threshold only, so promoting the low
     side must count {2} against the old database — which the injector
     fails deterministically — while the high side's seeding finds no
     newcomer and promotes from the delta alone *)
  let base = Array.init 24 (fun _ -> Itemset.of_list [ 0; 1 ]) in
  let delta =
    Array.init 6 (fun i -> Itemset.of_list (if i < 3 then [ 2 ] else [ 0; 1 ]))
  in
  let info = Helpers.small_info 4 in
  let src = Cfq_live.Source.of_mem base in
  let old_db = Cfq_live.Source.db src in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 1 }
      (Cfq_core.Exec.context old_db info)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  Service.attach_source service src;
  (* the high query first: the low one cannot be served from its side *)
  let q_high = Query.make ~s_minsup:0.9 ~t_minsup:0.9 () in
  let q_low = Query.make ~s_minsup:0.25 ~t_minsup:0.25 () in
  List.iter
    (fun q ->
      let r = expect_ok (Service.run service q) in
      Alcotest.(check string) "warmed cold" "cold"
        (Service.served_from_name r.Service.served_from))
    [ q_high; q_low ];
  (* fail every read of the pre-seal snapshot from here on *)
  Tx_db.set_faults old_db
    (Some
       (Fault.create { Fault.default_config with Fault.fail_first = max_int }));
  Array.iter (Service.ingest service) delta;
  let live =
    match Service.seal_live service with
    | Some live -> live
    | None -> Alcotest.fail "seal with pending returned None"
  in
  Alcotest.(check int) "epoch minted" 1 live.Service.lv_epoch;
  Alcotest.(check int) "service follows" 1 (Service.epoch service);
  Alcotest.(check int) "faulted side evicted" 1 live.Service.lv_sides_evicted;
  Alcotest.(check int) "delta-decided side promoted" 1
    live.Service.lv_sides_promoted;
  Alcotest.(check bool) "at most one old scan" true (live.Service.lv_old_scans <= 1);
  (* the seal only re-keys answers: both are carried, stale, to their
     re-ask, which promotes or drops each *)
  Alcotest.(check int) "both answers carried" 2 live.Service.lv_answers_promoted;
  Alcotest.(check int) "no answer dropped at the seal" 0 live.Service.lv_answers_evicted;
  let m = Service.metrics service in
  Alcotest.(check int) "only the promoted side survives" 1 m.Metrics.side_entries;
  Alcotest.(check int) "both answers wait for their re-ask" 2 m.Metrics.answer_entries;
  Alcotest.(check int) "epoch gauge" 1 m.Metrics.live_epoch;
  (* the service is unharmed: the covered answer is promoted on its
     re-ask, the uncovered one is dropped and re-mines against the grown
     database (the new snapshot carries no injector), and both match a
     cold reference exactly *)
  let cold_ctx =
    Cfq_core.Exec.context (Tx_db.create (Array.append base delta)) info
  in
  List.iter
    (fun (q, served) ->
      let r = expect_ok (Service.run service q) in
      Alcotest.(check string) "served from" served
        (Service.served_from_name r.Service.served_from);
      let cold = Cfq_core.Exec.run ~collect_pairs:true cold_ctx q in
      Alcotest.(check string) "answer matches cold remine"
        (pair_str cold.Cfq_core.Exec.pairs)
        (pair_str r.Service.pairs))
    [ (q_high, "answer-cache"); (q_low, "cold") ];
  let m = Service.metrics service in
  Alcotest.(check int) "uncovered answer evicted" 1 m.Metrics.answers_evicted;
  Alcotest.(check int) "covered answer promoted" 1 m.Metrics.answers_promoted

(* a clean (fault-free) seal promotes in place: warm hits, delta-only cost *)
let clean_seal_promotes () =
  let base = Array.init 16 (fun i -> Itemset.of_list [ i mod 2; 2 ]) in
  let info = Helpers.small_info 4 in
  let src = Cfq_live.Source.of_mem base in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 1 }
      (Cfq_core.Exec.context (Cfq_live.Source.db src) info)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  Service.attach_source service src;
  let q = Query.make ~s_minsup:0.4 ~t_minsup:0.4 () in
  ignore (expect_ok (Service.run service q) : Service.answer);
  for _ = 1 to 4 do
    Service.ingest service (Itemset.of_list [ 0; 2 ])
  done;
  let live =
    match Service.seal_live service with
    | Some live -> live
    | None -> Alcotest.fail "seal with pending returned None"
  in
  Alcotest.(check int) "sealed the batch" 4 live.Service.lv_sealed;
  Alcotest.(check bool) "sides promoted" true (live.Service.lv_sides_promoted >= 1);
  Alcotest.(check int) "answer carried" 1 live.Service.lv_answers_promoted;
  let r2 = expect_ok (Service.run service q) in
  Alcotest.(check string) "promoted answer serves verbatim" "answer-cache"
    (Service.served_from_name r2.Service.served_from);
  let m = Service.metrics service in
  Alcotest.(check int) "answer promoted" 1 m.Metrics.answers_promoted;
  Alcotest.(check int) "no evictions" 0
    (live.Service.lv_sides_evicted + live.Service.lv_answers_evicted + m.Metrics.answers_evicted);
  Alcotest.(check int) "promotion paid no scan" 0 r2.Service.scans;
  let cold_ctx =
    Cfq_core.Exec.context
      (Tx_db.create
         (Array.append base (Array.init 4 (fun _ -> Itemset.of_list [ 0; 2 ]))))
      info
  in
  let cold = Cfq_core.Exec.run ~collect_pairs:true cold_ctx q in
  Alcotest.(check string) "and byte-identically"
    (pair_str cold.Cfq_core.Exec.pairs)
    (pair_str r2.Service.pairs);
  (* maintenance cost is delta-sized: the shared pass pays at most one
     old-database scan per seal, whatever the number of cached sides *)
  Alcotest.(check bool) "maintenance charged pages" true (live.Service.lv_pages_read >= 1);
  Alcotest.(check bool) "at most one old scan" true (live.Service.lv_old_scans <= 1)

(* condensation across seals: a service maintained over k seals answers
   every epoch exactly like a cold Exec.run over the sealed transactions —
   the promote/re-close path must be invisible at every epoch *)
let condensed_cache_across_seals () =
  let base =
    Array.init 24 (fun i ->
        if i mod 3 = 0 then Itemset.of_list [ 0; 1; 2 ] else Itemset.of_list [ i mod 4 ])
  in
  let info = Helpers.small_info 5 in
  let src = Cfq_live.Source.of_mem base in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 1 }
      (Cfq_core.Exec.context (Cfq_live.Source.db src) info)
  in
  Service.attach_source service src;
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let queries =
    [
      Query.make ~s_minsup:0.2 ~t_minsup:0.2 ();
      Query.make ~s_minsup:0.3 ~t_minsup:0.25
        ~s_constraints:[ Cfq_constr.One_var.Card_cmp (Cfq_constr.Cmp.Le, 2) ]
        ();
    ]
  in
  let check_cold label sealed =
    let cold_ctx = Cfq_core.Exec.context (Tx_db.create sealed) info in
    List.iteri
      (fun i q ->
        let a = expect_ok (Service.run service q) in
        Alcotest.(check string)
          (Printf.sprintf "%s query %d: equals a cold run" label i)
          (pair_str (Cfq_core.Exec.run ~collect_pairs:true cold_ctx q).Cfq_core.Exec.pairs)
          (pair_str a.Service.pairs))
      queries
  in
  check_cold "epoch 0" base;
  let deltas =
    [ [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 3 ] ]; [ [ 0; 1; 2 ]; [ 1; 2 ]; [ 2 ] ] ]
  in
  ignore
    (List.fold_left
       (fun sealed delta ->
         let delta = Array.of_list (List.map Itemset.of_list delta) in
         Array.iter (Service.ingest service) delta;
         let epoch =
           match Service.seal_live service with
           | Some live -> live.Service.lv_epoch
           | None -> Alcotest.fail "a seal ignored pending appends"
         in
         let sealed = Array.append sealed delta in
         check_cold (Printf.sprintf "epoch %d" epoch) sealed;
         sealed)
       base deltas
      : Itemset.t array);
  Alcotest.(check bool) "reconstructed across seals" true
    ((Service.metrics service).Metrics.reconstructions > 0)

(* a seal leaves cached answers to their re-ask: on a correlated database
   whose sides really condense, a seal reconstructs only the stale sides it
   feeds the pass, never once per answer, and every answer is promoted
   when it is asked again *)
let seal_reuses_promoted_sides () =
  let correlated i =
    if i mod 3 = 2 then Itemset.of_list [ i mod 5 ] else Itemset.of_list [ 0; 1; 2; 3 ]
  in
  let base = Array.init 30 correlated in
  let info = Helpers.small_info 5 in
  let src = Cfq_live.Source.of_mem base in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 1 }
      (Cfq_core.Exec.context (Cfq_live.Source.db src) info)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  Service.attach_source service src;
  let queries =
    [
      Query.make ~s_minsup:0.2 ~t_minsup:0.2 ();
      Query.make ~s_minsup:0.3 ~t_minsup:0.2
        ~s_constraints:[ Cfq_constr.One_var.Card_cmp (Cfq_constr.Cmp.Le, 2) ]
        ();
      Query.make ~s_minsup:0.2 ~t_minsup:0.25
        ~two_var:
          [ Cfq_constr.Two_var.(Set2 (Helpers.typ, Intersect, Helpers.typ)) ]
        ();
    ]
  in
  List.iter
    (fun q -> ignore (expect_ok (Service.run service q) : Service.answer))
    queries;
  let delta = Array.init 9 (fun i -> correlated (i + 30)) in
  Array.iter (Service.ingest service) delta;
  let before = (Service.metrics service).Metrics.reconstructions in
  let live =
    match Service.seal_live service with
    | Some live -> live
    | None -> Alcotest.fail "seal with pending returned None"
  in
  let rebuilt = (Service.metrics service).Metrics.reconstructions - before in
  Alcotest.(check int) "every answer carried" (List.length queries)
    live.Service.lv_answers_promoted;
  Alcotest.(check bool) "the stale sides were condensed" true (rebuilt >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%d reconstructions for %d stale sides" rebuilt
       (live.Service.lv_sides_promoted + live.Service.lv_sides_evicted))
    true
    (rebuilt <= live.Service.lv_sides_promoted + live.Service.lv_sides_evicted);
  let cold_ctx = Cfq_core.Exec.context (Tx_db.create (Array.append base delta)) info in
  List.iter
    (fun q ->
      let r = expect_ok (Service.run service q) in
      Alcotest.(check string) "served from the promoted answer" "answer-cache"
        (Service.served_from_name r.Service.served_from);
      let cold = Cfq_core.Exec.run ~collect_pairs:true cold_ctx q in
      Alcotest.(check string) "answer matches cold remine"
        (pair_str cold.Cfq_core.Exec.pairs)
        (pair_str r.Service.pairs))
    queries;
  Alcotest.(check int) "every answer promoted" (List.length queries)
    (Service.metrics service).Metrics.answers_promoted

(* ------------------------------------------------------------------ *)
(* the delta join: every promoted answer equals a cold remine and a full
   re-join of the same sides, on random seal histories *)

(* one 2-var constraint per join method of [Pairs.form] *)
let delta_two_vars =
  Cfq_constr.
    [
      ("hash", Two_var.Set2 (Helpers.typ, Two_var.Set_eq, Helpers.typ));
      ("sort", Two_var.Agg2 (Agg.Max, Helpers.price, Cmp.Le, Agg.Min, Helpers.price));
      ("nested", Two_var.Set2 (Helpers.typ, Two_var.Intersect, Helpers.typ));
    ]

(* a query (supports in percent, a join shape) and the epochs between its
   re-asks *)
type delta_query = { s_pct : int; t_pct : int; join : int; lag : int }

type delta_history = {
  dn : int;
  dbase : int list list;
  deltas : int list list list;  (* one batch per seal: 1..3 seals *)
  dqueries : delta_query list;
}

(* deltas draw from a random window of the universe, so sets climb over
   the threshold (newcomers) and others fall under it between seals *)
let gen_delta_history =
  QCheck2.Gen.(
    let n = 5 in
    let* dbase = list_size (int_range 12 24) (Helpers.gen_tx n) in
    let* k = int_range 1 3 in
    let gen_batch =
      let* lo = int_range 0 2 in
      list_size (int_range 3 10)
        (map (List.map (fun i -> lo + (i mod (n - lo)))) (Helpers.gen_tx n))
    in
    let* deltas = list_repeat k gen_batch in
    (* one query per join shape: their keys never collide, so every
       re-ask finds its own stale answer *)
    let* dqueries =
      flatten_l
        (List.mapi
           (fun join _ ->
             let* s_pct = int_range 15 45 in
             let* t_pct = int_range 15 45 in
             let* lag = int_range 1 k in
             return { s_pct; t_pct; join; lag })
           delta_two_vars)
    in
    return { dn = n; dbase; deltas; dqueries })

let print_delta_history h =
  let txs l = String.concat "|" (List.map (fun t -> String.concat "," (List.map string_of_int t)) l) in
  Printf.sprintf "base=%s deltas=[%s] queries=[%s]" (txs h.dbase)
    (String.concat "; " (List.map txs h.deltas))
    (String.concat "; "
       (List.map
          (fun q ->
            Printf.sprintf "S>=%d%% T>=%d%% %s lag %d" q.s_pct q.t_pct
              (fst (List.nth delta_two_vars q.join))
              q.lag)
          h.dqueries))

let delta_query q =
  Query.make ~s_minsup:(float_of_int q.s_pct /. 100.) ~t_minsup:(float_of_int q.t_pct /. 100.)
    ~two_var:[ snd (List.nth delta_two_vars q.join) ]
    ()

(* a full join of the exactly valid sides at [db]'s supports *)
let full_rejoin db ~n info (q : Query.t) =
  let side frac =
    let minsup = Tx_db.absolute_support db frac in
    Array.of_list
      (List.filter_map
         (fun set ->
           let support = Helpers.support_of db set in
           if support >= minsup then Some { Frequent.set; support } else None)
         (Helpers.all_subsets n))
  in
  let valid_s = side q.Query.s_minsup and valid_t = side q.Query.t_minsup in
  let pairs = ref [] in
  ignore
    (Pairs.form ~s_info:info ~t_info:info ~valid_s ~valid_t ~two_var:q.Query.two_var
       ~on_run:(Pairs.pairwise (fun i j -> pairs := (valid_s.(i), valid_t.(j)) :: !pairs))
       ()
      : Pairs.stats);
  !pairs

(* re-ask [dq] at [epoch] over the sealed [db]: promoted from the answer
   cache, equal to a cold remine and to a full re-join *)
let check_reask service ~n info db ~epoch dq =
  let q = delta_query dq in
  let promoted () = (Service.metrics service).Metrics.answers_promoted in
  let before = promoted () in
  let a = expect_ok (Service.run service q) in
  let what = Printf.sprintf "epoch %d, %s" epoch (Query.to_string q) in
  if a.Service.served_from <> Service.Answer_cache || promoted () <> before + 1 then
    QCheck2.Test.fail_reportf "%s: served %s, not promoted" what
      (Service.served_from_name a.Service.served_from);
  let got = pair_str a.Service.pairs in
  let want what' want =
    if got <> want then
      QCheck2.Test.fail_reportf "%s: promoted answer differs from %s\n got %s\nwant %s" what
        what' got want
  in
  want "a remine"
    (pair_str
       (Cfq_core.Exec.run ~collect_pairs:true (Cfq_core.Exec.context db info) q)
         .Cfq_core.Exec.pairs);
  want "a full re-join" (pair_str (full_rejoin db ~n info q));
  if a.Service.n_pairs <> List.length a.Service.pairs then
    QCheck2.Test.fail_reportf "%s: n_pairs %d for %d pairs" what a.Service.n_pairs
      (List.length a.Service.pairs)

let delta_join_equals_remine =
  Helpers.qtest ~count:60 "live: a delta-promoted answer equals a remine and a full re-join"
    gen_delta_history print_delta_history (fun h ->
      let info = Helpers.small_info h.dn in
      let src = Cfq_live.Source.of_mem (Array.of_list (List.map Itemset.of_list h.dbase)) in
      let service =
        Service.create
          ~config:{ Service.default_config with domains = 1 }
          (Cfq_core.Exec.context (Cfq_live.Source.db src) info)
      in
      Service.attach_source service src;
      Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
      List.iter
        (fun dq -> ignore (expect_ok (Service.run service (delta_query dq)) : Service.answer))
        h.dqueries;
      let sealed = ref h.dbase in
      List.iteri
        (fun e batch ->
          let epoch = e + 1 in
          List.iter (fun tx -> Service.ingest service (Itemset.of_list tx)) batch;
          sealed := !sealed @ batch;
          if Service.seal_live service = None then
            QCheck2.Test.fail_reportf "seal %d ignored its batch" epoch;
          let db = Helpers.db_of_lists !sealed in
          List.iter
            (fun dq ->
              if epoch mod dq.lag = 0 then check_reask service ~n:h.dn info db ~epoch dq)
            h.dqueries)
        h.deltas;
      true)

(* ingest and seal on a service with nothing to ingest into are typed
   errors, not [Invalid_argument] *)
let no_source_is_typed () =
  let info = Helpers.small_info 3 in
  let service =
    Service.create
      ~config:{ Service.default_config with domains = 1 }
      (Cfq_core.Exec.context (Helpers.db_of_lists [ [ 0; 1 ] ]) info)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let typed what f =
    match f () with
    | () -> Alcotest.failf "%s: no error without a live source" what
    | exception Cfq_error.Error Cfq_error.No_live_source -> ()
    | exception Invalid_argument msg -> Alcotest.failf "%s: Invalid_argument %s" what msg
  in
  typed "ingest" (fun () -> Service.ingest service (Itemset.of_list [ 0 ]));
  typed "seal_live" (fun () -> ignore (Service.seal_live service : Service.live option));
  Alcotest.(check bool) "not retryable" false (Cfq_error.is_transient Cfq_error.No_live_source)

let suite =
  [
    Alcotest.test_case "promoted_minsup units" `Quick promoted_minsup_units;
    Alcotest.test_case "promoted_minsup covers all fractions" `Quick
      promoted_minsup_covers;
    update_abs_equals_union_mine;
    Alcotest.test_case "source seal accounting" `Quick source_seal_accounting;
    Alcotest.test_case "fault during maintenance" `Quick fault_during_maintenance;
    Alcotest.test_case "clean seal promotes in place" `Quick clean_seal_promotes;
    Alcotest.test_case "condensed cache equals a cold run across seals" `Quick
      condensed_cache_across_seals;
    Alcotest.test_case "seal reuses the promoted sides" `Quick seal_reuses_promoted_sides;
    delta_join_equals_remine;
    Alcotest.test_case "no live source is a typed error" `Quick no_source_is_typed;
  ]
