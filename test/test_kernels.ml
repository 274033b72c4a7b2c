(* The adaptive counting kernels: every kernel (trie, direct2, vertical,
   auto) must produce byte-identical supports, frequent collections, ccc
   counters and answers for every domain count and backend — the contract
   of Counting's kernel dispatch.  With faults installed the session is
   pinned to the trie, so even the fault walk (outcomes included) is
   identical to the trie path.  Run with CFQ_TEST_STORE=1 the same grid
   exercises the on-disk backend. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_baselines
open Cfq_core

let unit name f = Alcotest.test_case name `Quick f
let kernels = Counting.all_kernels
let domain_grid = [ 1; 3 ]

let session_of kernel =
  Counting.create_session ~plan:(Counting.plan_of_kernel kernel) ()

let entries_equal (a : Frequent.entry list) (b : Frequent.entry list) =
  List.length a = List.length b
  && List.for_all2
       (fun e1 e2 ->
         Itemset.equal e1.Frequent.set e2.Frequent.set
         && e1.Frequent.support = e2.Frequent.support)
       a b

(* ------------------------------------------------------------------ *)
(* Full-mine equivalence: Apriori under every kernel × domains          *)
(* ------------------------------------------------------------------ *)

let gen_mine =
  QCheck2.Gen.(
    let* n, db = Helpers.gen_db in
    let* minsup = int_range 2 8 in
    return (n, db, minsup))

let print_mine (n, db, minsup) =
  Printf.sprintf "minsup=%d %s" minsup (Helpers.print_db (n, db))

let mine_with ?session ?(domains = 1) db n ~minsup =
  let info = Helpers.small_info n in
  let io = Io_stats.create () in
  let par = Counting.par ~min_rows_per_domain:1 domains in
  let out = Apriori.mine db info io ~par ?session ~minsup () in
  (out, io)

let prop_mine_kernel_grid (n, db, minsup) =
  let base, _ = mine_with db n ~minsup in
  let base_entries = Frequent.to_list base.Apriori.frequent in
  let base_counted = Counters.support_counted base.Apriori.counters in
  List.for_all
    (fun (_, kernel) ->
      List.for_all
        (fun domains ->
          let out, _ = mine_with ~session:(session_of kernel) ~domains db n ~minsup in
          entries_equal base_entries (Frequent.to_list out.Apriori.frequent)
          && Counters.support_counted out.Apriori.counters = base_counted
          && Counters.candidates_generated out.Apriori.counters
             = Counters.candidates_generated base.Apriori.counters)
        domain_grid)
    kernels

(* The per-level rows must agree on the counting work (candidates, counted,
   frequent) for every kernel; only the kernel label may differ. *)
let prop_level_rows_kernel_independent (n, db, minsup) =
  let base, _ = mine_with db n ~minsup in
  let strip rows =
    List.map
      (fun r ->
        Level_stats.(r.level, r.candidates, r.counted, r.frequent))
      (Level_stats.rows rows)
  in
  List.for_all
    (fun (_, kernel) ->
      let out, _ = mine_with ~session:(session_of kernel) db n ~minsup in
      strip out.Apriori.stats = strip base.Apriori.stats)
    kernels

(* ------------------------------------------------------------------ *)
(* Exec equivalence: answers and ccc across kernels                     *)
(* ------------------------------------------------------------------ *)

let gen_case = QCheck2.Gen.pair Helpers.gen_query Helpers.gen_db
let print_case (q, db) = Query.to_string q ^ " on " ^ Helpers.print_db db

let answer_of (r : Exec.result) =
  Helpers.sorted_pairs
    (List.map
       (fun (a, b) -> (a.Frequent.set, b.Frequent.set))
       r.Exec.pairs)

let pairs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s1, t1) (s2, t2) -> Itemset.equal s1 s2 && Itemset.equal t1 t2)
       a b

let prop_exec_kernel_grid (q, (n, db)) =
  let info = Helpers.small_info n in
  let ctx = Exec.context db info in
  let base = Exec.run ~collect_pairs:true ~kernel:Counting.Trie ctx q in
  let base_answer = answer_of base in
  List.for_all
    (fun (_, kernel) ->
      List.for_all
        (fun domains ->
          let r =
            Exec.run ~collect_pairs:true
              ~par:(Counting.par ~min_rows_per_domain:1 domains)
              ~kernel ctx q
          in
          pairs_equal base_answer (answer_of r)
          && Exec.total_counted r = Exec.total_counted base
          && Exec.total_checks r = Exec.total_checks base)
        domain_grid)
    kernels

(* ------------------------------------------------------------------ *)
(* Fault pinning: with faults installed every kernel IS the trie        *)
(* ------------------------------------------------------------------ *)

let outcome_of r =
  match r with
  | Ok r -> Printf.sprintf "ok:%d" (List.length r.Exec.pairs)
  | Error e -> "err:" ^ Cfq_error.to_string e

let prop_faults_pin_to_trie (q, (n, db)) =
  let info = Helpers.small_info n in
  let ctx = Exec.context db info in
  let config =
    { Fault.default_config with Fault.seed = 0x5EEDL; transient_p = 0.08 }
  in
  let run kernel =
    let f = Fault.create config in
    Tx_db.set_faults db (Some f);
    let r = Exec.run_result ~collect_pairs:true ~kernel ctx q in
    Tx_db.set_faults db None;
    ( outcome_of r,
      (match r with Ok ok -> answer_of ok | Error _ -> []),
      (Fault.stats f).Fault.transient )
  in
  let base_out, base_ans, base_faults = run Counting.Trie in
  List.for_all
    (fun (_, kernel) ->
      let out, ans, faults = run kernel in
      out = base_out && pairs_equal ans base_ans && faults = base_faults)
    kernels

(* ------------------------------------------------------------------ *)
(* Planner cutoffs                                                      *)
(* ------------------------------------------------------------------ *)

let plan = Counting.default_plan

let test_direct2_cutoffs () =
  let p = { plan with Counting.budget_words = 100; direct2_max_sparsity = 4 } in
  Alcotest.(check bool)
    "fits" true
    (Counting.direct2_admissible p ~n_cands:30 ~n_cells:100);
  Alcotest.(check bool)
    "over budget" false
    (Counting.direct2_admissible p ~n_cands:30 ~n_cells:101);
  Alcotest.(check bool)
    "too sparse" false
    (Counting.direct2_admissible p ~n_cands:10 ~n_cells:41);
  Alcotest.(check bool)
    "sparsity boundary" true
    (Counting.direct2_admissible p ~n_cands:10 ~n_cells:40)

let test_vertical_cutoffs () =
  let p = { plan with Counting.budget_words = 64; vertical_min_card = 3 } in
  let words = Tidset.words_needed ~n_items:4 ~n_rows:100 in
  Alcotest.(check bool) "words fit budget" true (words <= 64);
  Alcotest.(check bool)
    "admitted" true
    (Counting.vertical_admissible p ~n_live_items:4 ~n_rows:100 ~min_card:3);
  Alcotest.(check bool)
    "below switchover card" false
    (Counting.vertical_admissible p ~n_live_items:4 ~n_rows:100 ~min_card:2);
  Alcotest.(check bool)
    "over budget" false
    (Counting.vertical_admissible p ~n_live_items:1000 ~n_rows:100_000
       ~min_card:5)

(* a dense database where every level up to 4 is populated *)
let dense_db () =
  Helpers.db_of_lists
    (List.init 24 (fun i ->
         if i mod 3 = 0 then [ 0; 1; 2; 3; 4 ]
         else if i mod 3 = 1 then [ 0; 1; 2; 3 ]
         else [ 1; 2; 3; 4; 5 ]))

(* Cold-build admission (the 0.73x fix): the charged bitmap build must
   beat the trie walk it displaces on the modelled unit costs.  The
   reject case is shaped like the committed bench workload — a huge
   level-2 candidate set over a few thousand rows, where the probes alone
   are slower than the scan — and passes the plain [vertical_admissible]
   cutoffs, so the rejection is the cold-cost model's alone. *)
let test_vertical_cold_cutoff () =
  Alcotest.(check bool)
    "few candidates over a small db admit" true
    (Counting.vertical_cold_admissible plan ~n_live_items:6 ~n_rows:24
       ~min_card:3 ~avg_len:4.5 ~n_cands:20);
  Alcotest.(check bool)
    "bench-shaped workload passes the budget cutoffs" true
    (Counting.vertical_admissible plan ~n_live_items:64 ~n_rows:4096
       ~min_card:3);
  Alcotest.(check bool)
    "but the cold-cost model rejects it" false
    (Counting.vertical_cold_admissible plan ~n_live_items:64
       ~n_rows:4096 ~min_card:3 ~avg_len:8.0 ~n_cands:200_000);
  Alcotest.(check bool)
    "below the switchover card still rejected" false
    (Counting.vertical_cold_admissible plan ~n_live_items:6 ~n_rows:24
       ~min_card:2 ~avg_len:4.5 ~n_cands:20)

let test_projection_cutoffs () =
  Alcotest.(check bool)
    "fits" true
    (Counting.projection_admissible plan ~est_words:1000);
  Alcotest.(check bool)
    "over budget" false
    (Counting.projection_admissible plan
       ~est_words:(plan.Counting.budget_words + 1));
  Alcotest.(check bool)
    "disabled by plan" false
    (Counting.projection_admissible
       { plan with Counting.projection = false }
       ~est_words:10)

let test_fixed_kernels_disable_projection () =
  List.iter
    (fun (name, k) ->
      let p = Counting.plan_of_kernel k in
      Alcotest.(check bool)
        (name ^ " projection flag")
        (k = Counting.Auto) p.Counting.projection)
    kernels

(* ------------------------------------------------------------------ *)
(* Projection semantics                                                 *)
(* ------------------------------------------------------------------ *)

let pm = Page_model.make ~page_size_bytes:64 ()

let test_projection_shrinkage () =
  let txs = [| [| 0; 1; 2 |]; [| 1; 2 |]; [| 0; 2; 3 |] |] in
  let p =
    Projection.make ~page_model:pm ~universe_size:5 ~live:[| 0; 1; 2; 3 |]
      ~min_len:2 txs
  in
  Alcotest.(check int) "tuples" 3 (Projection.tuples p);
  Alcotest.(check int) "min_len" 2 (Projection.min_len p);
  Alcotest.(check int) "words = slots + headers" 11 (Projection.words p);
  Alcotest.(check bool)
    "covers live items at its card" true
    (Projection.covers p ~items:[| 0; 2 |] ~min_card:2);
  Alcotest.(check bool)
    "below min_len not covered" false
    (Projection.covers p ~items:[| 0; 2 |] ~min_card:1);
  Alcotest.(check bool)
    "dead item not covered" false
    (Projection.covers p ~items:[| 0; 4 |] ~min_card:2);
  (* shrinking the transactions can only shrink the page charge *)
  let smaller =
    Projection.make ~page_model:pm ~universe_size:5 ~live:[| 0; 2 |] ~min_len:3
      [| [| 0; 2 |] |]
  in
  Alcotest.(check bool)
    "pages monotone" true
    (Projection.pages smaller <= Projection.pages p);
  let io = Io_stats.create () in
  Projection.charge_scan p io;
  Alcotest.(check int) "one scan charged" 1 (Io_stats.scans io);
  Alcotest.(check int) "reduced pages charged" (Projection.pages p)
    (Io_stats.pages_read io)

(* A projection scan must charge no more pages than the database scan it
   replaces: mine with Auto (projections on) and check total pages. *)
let prop_projection_never_charges_more (n, db, minsup) =
  let _, io_base = mine_with db n ~minsup in
  let _, io_auto = mine_with ~session:(session_of Counting.Auto) db n ~minsup in
  Io_stats.pages_read io_auto <= Io_stats.pages_read io_base

(* ------------------------------------------------------------------ *)
(* Session bookkeeping: the kernels actually engage                     *)
(* ------------------------------------------------------------------ *)

let test_vertical_engages () =
  let db = dense_db () in
  let s = session_of Counting.Vertical in
  let _, io = mine_with ~session:s db 6 ~minsup:4 in
  let pc = Counting.pass_counts s in
  Alcotest.(check bool) "built bitmaps" true (pc.Counting.bitmap_builds >= 1);
  Alcotest.(check bool) "vertical passes" true (pc.Counting.vertical_passes >= 1);
  Alcotest.(check bool)
    "bitmap passes beyond the build charge no extra scans" true
    (Io_stats.scans io
    <= pc.Counting.trie_passes + pc.Counting.bitmap_builds + 1);
  Alcotest.(check string) "label" "vertical" (Counting.last_kernel s)

let test_direct2_engages () =
  let db = dense_db () in
  let s = session_of Counting.Direct2 in
  let _ = mine_with ~session:s db 6 ~minsup:4 in
  let pc = Counting.pass_counts s in
  Alcotest.(check bool) "direct2 pass happened" true (pc.Counting.direct2_passes >= 1);
  Alcotest.(check bool)
    "no bitmaps under direct2" true
    (pc.Counting.bitmap_builds = 0)

let test_auto_projects () =
  let db = dense_db () in
  let s = session_of Counting.Auto in
  let _ = mine_with ~session:s db 6 ~minsup:4 in
  let pc = Counting.pass_counts s in
  Alcotest.(check bool)
    "some adaptive activity" true
    (pc.Counting.direct2_passes + pc.Counting.vertical_passes
     + pc.Counting.projected_scans
    >= 1);
  Alcotest.(check bool)
    "describe mentions passes" true
    (String.length (Counting.describe s) > 0)

(* Fused build: on a dense database Auto stands the bitmaps up from the
   projection rows already in memory — no charged build scan — so the whole
   mine charges strictly fewer scans than the per-level trie walk, while
   the frequent sets stay identical (prop_mine_kernel_grid). *)
let test_auto_fused_build_saves_scans () =
  let db = dense_db () in
  let s = Counting.create_session () in
  let _, io_base = mine_with db 6 ~minsup:4 in
  let _, io_auto = mine_with ~session:s db 6 ~minsup:4 in
  let pc = Counting.pass_counts s in
  Alcotest.(check bool) "bitmaps were built" true (pc.Counting.bitmap_builds >= 1);
  Alcotest.(check bool)
    "deep passes answered from bitmaps" true
    (pc.Counting.vertical_passes >= 1);
  Alcotest.(check bool)
    "strictly fewer scans than the trie walk" true
    (Io_stats.scans io_auto < Io_stats.scans io_base);
  Alcotest.(check bool)
    "and no more pages" true
    (Io_stats.pages_read io_auto <= Io_stats.pages_read io_base)

let test_kernel_names_roundtrip () =
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) "name" name (Counting.kernel_name k);
      match Counting.kernel_of_string name with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | None -> Alcotest.fail ("kernel_of_string failed on " ^ name))
    kernels;
  Alcotest.(check bool)
    "unknown rejected" true
    (Counting.kernel_of_string "quantum" = None)

(* ------------------------------------------------------------------ *)
(* Tidset scratch reuse: batched probes match singles                   *)
(* ------------------------------------------------------------------ *)

let test_vertical_scratch_reuse () =
  let db = dense_db () in
  let io = Io_stats.create () in
  let v = Tidset.of_db db io ~universe_size:6 in
  let cands =
    Array.of_list
      (List.filter
         (fun s -> not (Itemset.is_empty s))
         (Helpers.all_subsets 6))
  in
  let batched = Tidset.supports v cands in
  let scratch = Tidset.scratch v in
  Array.iteri
    (fun i s ->
      Alcotest.(check int)
        ("support of " ^ Itemset.to_string s)
        (Tidset.support v s) batched.(i);
      Alcotest.(check int)
        ("scratch support of " ^ Itemset.to_string s)
        batched.(i)
        (Tidset.support_into v scratch s))
    cands

(* ------------------------------------------------------------------ *)
(* DHP level rows (satellite): bucket filter visible in Level_stats     *)
(* ------------------------------------------------------------------ *)

let test_dhp_rows () =
  let db = dense_db () in
  let io = Io_stats.create () in
  let out = Dhp.mine db io ~minsup:4 ~universe_size:6 ~n_buckets:7 in
  let rows = Level_stats.rows out.Dhp.stats in
  let l2 = List.find (fun r -> r.Level_stats.level = 2) rows in
  Alcotest.(check int) "l2 candidates" out.Dhp.c2_plain l2.Level_stats.candidates;
  Alcotest.(check int) "l2 counted" out.Dhp.c2_filtered l2.Level_stats.counted;
  Alcotest.(check string) "l2 kernel" "dhp-bucket" l2.Level_stats.kernel;
  let l1 = List.find (fun r -> r.Level_stats.level = 1) rows in
  Alcotest.(check string) "l1 kernel" "dhp-fused" l1.Level_stats.kernel;
  Alcotest.(check bool)
    "filter can only shrink" true
    (out.Dhp.c2_filtered <= out.Dhp.c2_plain)

let suite =
  [
    Helpers.qtest ~count:60 "apriori frequent sets and ccc are kernel-independent"
      gen_mine print_mine prop_mine_kernel_grid;
    Helpers.qtest ~count:40 "per-level rows are kernel-independent"
      gen_mine print_mine prop_level_rows_kernel_independent;
    Helpers.qtest ~count:40 "exec answers and ccc are kernel-independent"
      gen_case print_case prop_exec_kernel_grid;
    Helpers.qtest ~count:25 "faults pin every kernel to the trie walk"
      gen_case print_case prop_faults_pin_to_trie;
    Helpers.qtest ~count:60 "auto projections never charge more pages"
      gen_mine print_mine prop_projection_never_charges_more;
    unit "direct2 budget and sparsity cutoffs" test_direct2_cutoffs;
    unit "vertical switchover cutoffs" test_vertical_cutoffs;
    unit "cold bitmap builds gated by modelled costs" test_vertical_cold_cutoff;
    unit "projection budget cutoff" test_projection_cutoffs;
    unit "fixed kernels disable projections" test_fixed_kernels_disable_projection;
    unit "projection shrinkage semantics" test_projection_shrinkage;
    unit "vertical kernel engages and answers from bitmaps" test_vertical_engages;
    unit "direct2 kernel engages on level 2" test_direct2_engages;
    unit "auto session reports adaptive activity" test_auto_projects;
    unit "auto fused bitmap build saves whole scans" test_auto_fused_build_saves_scans;
    unit "kernel names round-trip" test_kernel_names_roundtrip;
    unit "vertical scratch reuse matches single probes" test_vertical_scratch_reuse;
    unit "dhp bucket filter visible in level rows" test_dhp_rows;
  ]
