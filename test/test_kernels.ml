(* The support-counting kernels: trie and direct2 must produce
   byte-identical supports, frequent collections, ccc counters and answers
   for every domain count and backend — the contract of Counting's kernel
   dispatch.  Both walk the same pages in the same order, so with faults
   installed even the fault walk (outcomes included) is identical to the
   trie path.  test_backends runs both kernels on every backend. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_mining
open Cfq_baselines
open Cfq_core
open Cfq_constr

let unit name f = Alcotest.test_case name `Quick f
let kernels = Counting.all_kernels
let domain_grid = [ 1; 3 ]

let session_of = Counting.create_session

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

(* The same contract for constrained CAP runs, whose levels 1 and 2 are
   implicit when admission is trivial: an MGF witness group (the witness
   form of level 2) and the unconstrained bundle take the implicit path;
   an anti-monotone sum check and an extra filter take the explicit one.
   An extra filter that admits everything forces the explicit path on the
   same lattice, so the implicit path must also equal it. *)
let prop_cap_counters_kernel_independent (n, db, minsup) =
  let info = Helpers.small_info n in
  let bundles =
    [
      [];
      (* min(S.Price) <= 20: succinct, a witness group *)
      [ One_var.Agg_cmp (Agg.Min, Helpers.price, Cmp.Le, 20.) ];
      (* sum(S.Price) <= 90: anti-monotone, checked per candidate *)
      [ One_var.Agg_cmp (Agg.Sum, Helpers.price, Cmp.Le, 90.) ];
    ]
  in
  let admit_all _ = true and sum_le_60 s = Item_info.sum_of info Helpers.price s <= 60. in
  let run kernel ~domains cs filter =
    let state = Cap.create db info ~minsup (Bundle.compile ~nonneg:true info cs) in
    Option.iter (Cap.set_extra_filter state) filter;
    let freq =
      Cap.run ~par:(Counting.par ~min_rows_per_domain:1 domains)
        ~session:(session_of kernel) state (Io_stats.create ())
    in
    let c = Cap.counters state in
    ( List.map (fun e -> (e.Frequent.set, e.Frequent.support)) (Frequent.to_list freq),
      Counters.(support_counted c, candidates_generated c, constraint_checks c),
      List.map
        (fun r -> Level_stats.(r.level, r.candidates, r.counted, r.frequent))
        (Level_stats.rows (Cap.stats state)) )
  in
  let same_everywhere cs filter =
    let base = run Counting.Trie ~domains:1 cs filter in
    List.for_all
      (fun (_, kernel) ->
        List.for_all (fun domains -> run kernel ~domains cs filter = base) domain_grid)
      kernels
  in
  List.for_all
    (fun cs ->
      run Counting.Direct2 ~domains:1 cs None = run Counting.Direct2 ~domains:1 cs (Some admit_all)
      && List.for_all (same_everywhere cs) [ None; Some admit_all; Some sum_le_60 ])
    bundles

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
(* Faults: every kernel draws the same injector decisions as the trie  *)
(* ------------------------------------------------------------------ *)

let outcome_of r =
  match r with
  | Ok r -> Printf.sprintf "ok:%d" (List.length r.Exec.pairs)
  | Error e -> "err:" ^ Cfq_error.to_string e

let prop_faults_same_walk (q, (n, db)) =
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
      (match r with
      | Ok ok -> (Io_stats.scans ok.Exec.io, Io_stats.pages_read ok.Exec.io)
      | Error _ -> (0, 0)),
      (Fault.stats f).Fault.transient )
  in
  let base_out, base_ans, base_io, base_faults = run Counting.Trie in
  List.for_all
    (fun (_, kernel) ->
      let out, ans, io, faults = run kernel in
      out = base_out && pairs_equal ans base_ans && io = base_io
      && faults = base_faults)
    kernels

(* ------------------------------------------------------------------ *)
(* Mixed families in one pass: histogram, direct2 and trie together    *)
(* ------------------------------------------------------------------ *)

(* Six families over transactions that may be empty or carry items above
   every candidate:
   - two singleton families (the second overlaps the first and holds the
     largest singleton items, so it sizes the histogram);
   - two pair families that are identical, overlapping or disjoint, or two
     perfect matchings [(0,1), (2,3), ...] at the edge of
     [direct2_admissible]: a matching of [a] pairs is admissible alone iff
     [a <= 8], and the union of two iff it holds at most 8 distinct pairs.
     The second matching may repeat a prefix of the first, so a union
     that counted a repeat twice would pass where the distinct one fails;
   - a triple family and a second family of triples or 4-sets, so the
     smallest cardinality bounds the rows trimming skips. *)
let gen_mixed_pass =
  QCheck2.Gen.(
    let* n = int_range 5 9 in
    let* mode = frequencyl [ (1, 0); (1, 1); (1, 2); (2, 3) ] in
    (* matchings of 6 to 15 pairs: a first one of 9 is inadmissible alone,
       and a union of 9 or 10 distinct pairs with a repeat of 1 to 3 is
       where counting repeats would flip the admission *)
    let* a = int_range 4 9 in
    let* b = int_range 2 6 in
    let* prefix = int_range 0 3 in
    let top = if mode = 3 then max (n + 4) ((2 * (a + b)) + 1) else n + 4 in
    let gen_set k = list_repeat k (int_range 0 top) in
    let family k sets =
      List.filter (fun s -> Itemset.cardinal s = k) (List.map Itemset.of_list sets)
      |> List.sort_uniq Itemset.compare |> Array.of_list
    in
    let singles items = Array.of_list (List.map Itemset.singleton (List.sort_uniq compare items)) in
    let matching lo k = List.init k (fun i -> [ lo + (2 * i); lo + (2 * i) + 1 ]) in
    let* s1 = list_size (int_range 1 6) (int_range 0 (n - 1)) in
    let* above = list_size (int_range 1 2) (int_range n (n + 2)) in
    let* s2_rest = list_size (int_range 0 3) (int_range 0 (n - 1)) in
    let* pairs = list_size (int_range 1 15) (gen_set 2) in
    let* more_pairs = list_size (int_range 1 15) (gen_set 2) in
    let* low = list_size (int_range 1 8) (list_repeat 2 (int_range 0 (top / 2))) in
    let* high = list_size (int_range 1 8) (list_repeat 2 (int_range ((top / 2) + 1) top)) in
    let* triples = list_size (int_range 1 10) (gen_set 3) in
    let* k2 = int_range 3 4 in
    let* wider = list_size (int_range 1 10) (gen_set k2) in
    let* txs =
      list_size (int_range 20 60)
        (frequency [ (1, return []); (5, list_size (int_range 1 10) (int_range 0 top)) ])
    in
    let pairs1, pairs2 =
      match mode with
      | 0 -> ([ 0; 1 ] :: pairs, [ 0; 1 ] :: pairs)
      | 1 -> ([ 0; 1 ] :: pairs, ([ 0; 1 ] :: List.filteri (fun i _ -> i mod 2 = 0) pairs) @ more_pairs)
      | 2 -> ([ 0; 1 ] :: low, [ top - 1; top ] :: high)
      | _ -> (matching 0 a, List.filteri (fun i _ -> i < prefix) (matching 0 a) @ matching (2 * a) b)
    in
    return
      ( Array.of_list (List.map Itemset.of_list txs),
        [
          singles s1;
          singles ((List.hd s1 :: above) @ s2_rest);
          family 2 pairs1;
          family 2 pairs2;
          family 3 ([ 0; 1; 2 ] :: triples);
          family k2 wider;
        ] ))

let print_mixed_pass (txs, fams) =
  let sets a = String.concat "," (Array.to_list (Array.map Itemset.to_string a)) in
  Printf.sprintf "txs=[%s] families=[%s]" (sets txs)
    (String.concat " | " (List.map sets fams))

(* The Direct2 plan of one pass, restated from its rules: each family's
   label, and the pass's shape (pair families read off one shared
   triangle, rows trimming skips). *)
let expected_plan txs fams =
  let singletons c = Array.length c > 0 && Array.for_all (fun s -> Itemset.cardinal s = 1) c in
  let admissible ~n_cands cands =
    match Direct2.pair_items cands with
    | Some items ->
        let r = Array.length items in
        Counting.direct2_admissible ~n_cands ~n_cells:(r * (r - 1) / 2)
    | None -> false
  in
  let own = List.filter (fun c -> admissible ~n_cands:(Array.length c) c) fams in
  let labels =
    List.map (fun c -> if singletons c || List.memq c own then "direct2" else "trie") fams
  in
  let union = Array.of_list (List.sort_uniq Itemset.compare (List.concat_map Array.to_list own)) in
  let shared_families =
    if List.length own >= 2 && admissible ~n_cands:(Array.length union) union then List.length own
    else 0
  in
  let cards = List.concat_map (fun c -> List.map Itemset.cardinal (Array.to_list c)) fams in
  let min_k = List.fold_left min max_int cards in
  let rows_skipped =
    if List.mem "direct2" labels || min_k < 2 || cards = [] then 0
    else begin
      let cand_items = List.concat_map (fun c -> List.concat_map Itemset.to_list (Array.to_list c)) fams in
      Array.fold_left
        (fun n tx ->
          let k = List.length (List.filter (fun i -> List.mem i cand_items) (Itemset.to_list tx)) in
          if k < min_k then n + 1 else n)
        0 txs
    end
  in
  (labels, { Counting.shared_families; rows_skipped })

(* Three passes from the six families: all of them (the histogram, the
   pair families and the tries side by side), the two pair families alone,
   and the two trie families alone (the only pass whose rows are
   trimmed).  Each is counted at 1 and 3 domains on a plain and a
   3-shard database under direct2, and must equal the trie and brute
   force in counts, scans and pages, with the plan's labels and shape. *)
let prop_mixed_pass_grid (txs, fams) =
  let pass ?(domains = 1) kernel db fams =
    let io = Io_stats.create () in
    let session = session_of kernel in
    let supports =
      Counting.count_pass
        ~par:(Counting.par ~min_rows_per_domain:1 domains)
        ~session db io
        (List.map (fun c -> (Counters.create (), Candidate.Sets c)) fams)
    in
    ( List.map Counting.counts supports,
      (Io_stats.scans io, Io_stats.pages_read io),
      List.map Counting.label supports,
      Counting.last_shape session )
  in
  (* small pages, so a 3-domain pass really fans out over several chunks *)
  let page_model = Page_model.make ~page_size_bytes:64 () in
  let plain = Tx_db.create ~page_model txs in
  let sharded = Cfq_shard.Sharded.mem_db ~page_model ~shards:3 txs in
  let pick idx = List.filteri (fun i _ -> List.mem i idx) fams in
  List.for_all
    (fun fams ->
      let ref_counts, ref_io, ref_labels, ref_shape = pass Counting.Trie plain fams in
      let labels, shape = expected_plan txs fams in
      ref_counts = List.map (Array.map (Helpers.support_of plain)) fams
      && ref_labels = List.map (fun _ -> "trie") fams
      && ref_shape = { Counting.shared_families = 0; rows_skipped = 0 }
      && List.for_all
           (fun db ->
             List.for_all
               (fun domains ->
                 let counts, io, l, sh = pass ~domains Counting.Direct2 db fams in
                 counts = ref_counts && io = ref_io && l = labels && sh = shape)
               domain_grid)
           [ plain; sharded ])
    [ fams; pick [ 2; 3 ]; pick [ 4; 5 ] ]

(* ------------------------------------------------------------------ *)
(* Implicit levels 1 and 2: no itemset per candidate                    *)
(* ------------------------------------------------------------------ *)

(* Implicit families over items up to [n + 2] (above some transactions'
   items): a level-1 form, an all-pairs form, and a witness form whose
   witnesses are none, all, one or some of its items; plus an explicit
   pair family and an explicit triple family, and a minimum support. *)
let gen_implicit_pass =
  QCheck2.Gen.(
    let* n = int_range 4 9 in
    let top = n + 2 in
    let items = map (fun l -> Array.of_list (List.sort_uniq compare l)) (list_size (int_range 0 (top + 1)) (int_range 0 top)) in
    let* l1 = items in
    let* l2 = items in
    let* l3 = items in
    let* mode = int_range 0 3 in
    let* picks = list_repeat (Array.length l3) bool in
    let* one = int_bound 20 in
    let witnesses =
      match mode with
      | 0 -> [||]
      | 1 -> l3
      | 2 -> if Array.length l3 = 0 then [||] else [| l3.(one mod Array.length l3) |]
      | _ -> Array.of_list (List.filteri (fun i _ -> List.nth picks i) (Array.to_list l3))
    in
    let family k sets =
      List.map Itemset.of_list sets
      |> List.filter (fun s -> Itemset.cardinal s = k)
      |> List.sort_uniq Itemset.compare |> Array.of_list
    in
    let* pairs = list_size (int_range 1 12) (list_repeat 2 (int_range 0 top)) in
    let* triples = list_size (int_range 1 8) (list_repeat 3 (int_range 0 top)) in
    let* txs =
      list_size (int_range 20 60)
        (frequency [ (1, return []); (5, list_size (int_range 1 9) (int_range 0 n)) ])
    in
    let* minsup = int_range 0 6 in
    return
      ( Array.of_list (List.map Itemset.of_list txs),
        [
          Candidate.Items l1;
          Candidate.Pairs l2;
          Candidate.Witness_pairs { items = l3; witnesses };
          Candidate.Sets (family 2 pairs);
          Candidate.Sets (family 3 triples);
        ],
        minsup ))

let print_implicit_pass (txs, fams, minsup) =
  let items a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let sets a = String.concat "," (Array.to_list (Array.map Itemset.to_string a)) in
  let fam = function
    | Candidate.Sets c -> "sets " ^ sets c
    | Candidate.Witness_sets { sets = c; witnesses } -> Printf.sprintf "sets %s witnesses %s" (sets c) (items witnesses)
    | Candidate.Items i -> "items " ^ items i
    | Candidate.Pairs i -> "pairs " ^ items i
    | Candidate.Witness_pairs { items = i; witnesses } -> Printf.sprintf "pairs %s witnesses %s" (items i) (items witnesses)
  in
  Printf.sprintf "minsup=%d txs=[%s] families=[%s]" minsup (sets txs)
    (String.concat " | " (List.map fam fams))

(* Passes over the implicit forms alone, two at a time (a dovetailed
   level), and mixed with the explicit pair and trie families.  Each is
   counted under both kernels at 1 and 3 domains on a plain and a 3-shard
   database.  Every family's frequent candidates must equal brute force
   over its expansion (which lists each candidate once and matches
   {!Candidate.count}), and the pass must charge the same supports
   counted, scans and pages, and report the same labels, pass counts and
   shape, as the same pass with every family expanded to explicit sets
   (a witness form to [Witness_sets], which skips the same rows; the
   witness property below checks them against listed [Sets]). *)
let prop_implicit_passes (txs, fams, minsup) =
  let page_model = Page_model.make ~page_size_bytes:64 () in
  let plain = Tx_db.create ~page_model txs in
  let sharded = Cfq_shard.Sharded.mem_db ~page_model ~shards:3 txs in
  let brute fam =
    Candidate.to_sets fam |> Array.to_list
    |> List.map (fun s -> (s, Helpers.support_of plain s))
    |> List.filter (fun (_, c) -> c >= minsup)
    |> List.sort (fun (a, _) (b, _) -> Itemset.compare a b)
  in
  let expansion_ok fam =
    let sets = Candidate.to_sets fam in
    Array.length sets = Candidate.count fam
    && List.length (List.sort_uniq Itemset.compare (Array.to_list sets)) = Array.length sets
  in
  let pass kernel ~domains db fams =
    let io = Io_stats.create () in
    let session = session_of kernel in
    let counters = List.map (fun _ -> Counters.create ()) fams in
    let supports =
      Counting.count_pass
        ~par:(Counting.par ~min_rows_per_domain:1 domains)
        ~session db io (List.combine counters fams)
    in
    ( List.map
        (fun s ->
          List.map (fun e -> (e.Frequent.set, e.Frequent.support))
            (Array.to_list (Counting.frequent s ~minsup)))
        supports,
      ( List.map Counters.support_counted counters,
        (Io_stats.scans io, Io_stats.pages_read io),
        List.map Counting.label supports,
        Counting.pass_counts session,
        Counting.last_shape session ) )
  in
  let explicit fams = List.map (Candidate.filter (fun _ -> true)) fams in
  let pick idx = List.filteri (fun i _ -> List.mem i idx) fams in
  List.for_all expansion_ok fams
  && List.for_all
       (fun fams ->
         let expected = List.map brute fams in
         List.for_all
           (fun (_, kernel) ->
             List.for_all
               (fun db ->
                 List.for_all
                   (fun domains ->
                     let freq, shape = pass kernel ~domains db fams in
                     let freq_x, shape_x = pass kernel ~domains db (explicit fams) in
                     freq = expected && freq_x = expected && shape = shape_x)
                   domain_grid)
               [ plain; sharded ])
           kernels)
       [ pick [ 0 ]; pick [ 1 ]; pick [ 2 ]; pick [ 1; 2 ]; pick [ 0; 1; 3 ]; pick [ 2; 3; 4 ]; fams ]

(* ------------------------------------------------------------------ *)
(* Witness-restricted passes: a row with no witness supports nothing     *)
(* ------------------------------------------------------------------ *)

(* Witness families over items up to [n + 2]: two pair forms whose
   witnesses are random subsets of their items (so they may share a
   rectangle), and witness-holding triples and 4-sets with their own
   witnesses; plus a level-1 form that counts every row. *)
let gen_witness_pass =
  QCheck2.Gen.(
    let* n = int_range 4 9 in
    let top = n + 2 in
    let items = map (fun l -> Array.of_list (List.sort_uniq compare l)) (list_size (int_range 0 (top + 1)) (int_range 0 top)) in
    let subset a =
      map
        (fun picks -> Array.of_list (List.filteri (fun i _ -> List.nth picks i) (Array.to_list a)))
        (list_repeat (Array.length a) bool)
    in
    let* p1 = items in
    let* w1 = subset p1 in
    let* p2 = items in
    let* w2 = subset p2 in
    let witness_sets k =
      let* ws = map (fun l -> Array.of_list (List.sort_uniq compare l)) (list_size (int_range 1 3) (int_range 0 top)) in
      let* sets = list_size (int_range 1 12) (list_repeat k (int_range 0 top)) in
      let sets =
        List.map Itemset.of_list sets
        |> List.filter (fun s -> Itemset.cardinal s = k && Array.exists (fun w -> Itemset.mem w s) ws)
        |> List.sort_uniq Itemset.compare |> Array.of_list
      in
      return (Candidate.Witness_sets { sets; witnesses = ws })
    in
    let* s3 = witness_sets 3 in
    let* s4 = witness_sets 4 in
    let* l1 = items in
    let* txs =
      list_size (int_range 20 60)
        (frequency [ (1, return []); (5, list_size (int_range 1 9) (int_range 0 top)) ])
    in
    return
      ( Array.of_list (List.map Itemset.of_list txs),
        [
          Candidate.Witness_pairs { items = p1; witnesses = w1 };
          Candidate.Witness_pairs { items = p2; witnesses = w2 };
          s3;
          s4;
          Candidate.Items l1;
        ] ))

(* Each witness family alone, the pair forms together (a shared
   rectangle when admissible), the explicit ones together (trimmed rows),
   all witness families, and all of them with the level-1 form.  At 1 and
   3 domains on a plain and a 3-shard database, every family's supports
   under direct2 must equal brute force and the trie's over the same
   candidates listed as plain [Sets] (which skips no row), with the same
   supports counted, scans and pages.  A pass of witness families alone
   skips at least every row holding no witness of any of them. *)
let prop_witness_passes (txs, fams) =
  let page_model = Page_model.make ~page_size_bytes:64 () in
  let plain = Tx_db.create ~page_model txs in
  let sharded = Cfq_shard.Sharded.mem_db ~page_model ~shards:3 txs in
  let brute fam =
    let rows = Array.to_list txs in
    Candidate.to_sets fam |> Array.to_list
    |> List.map (fun s -> (s, List.length (List.filter (Itemset.subset s) rows)))
    |> List.sort (fun (a, _) (b, _) -> Itemset.compare a b)
  in
  let pass kernel ~domains db fams =
    let io = Io_stats.create () in
    let session = session_of kernel in
    let counters = List.map (fun _ -> Counters.create ()) fams in
    let supports =
      Counting.count_pass
        ~par:(Counting.par ~min_rows_per_domain:1 domains)
        ~session db io (List.combine counters fams)
    in
    ( List.map
        (fun s ->
          List.map (fun e -> (e.Frequent.set, e.Frequent.support))
            (Array.to_list (Counting.frequent s ~minsup:0)))
        supports,
      List.map Counters.support_counted counters,
      (Io_stats.scans io, Io_stats.pages_read io),
      (Counting.last_shape session).Counting.rows_skipped )
  in
  let listed fams = List.map (fun f -> Candidate.Sets (Candidate.to_sets f)) fams in
  let no_witness fams =
    let ws = List.concat_map (fun f -> Array.to_list (Option.get (Candidate.witnesses f))) fams in
    Array.fold_left
      (fun k tx -> if List.exists (fun w -> Itemset.mem w tx) ws then k else k + 1)
      0 txs
  in
  let pick idx = List.filteri (fun i _ -> List.mem i idx) fams in
  List.for_all
    (fun fams ->
      let ref_freq, ref_counted, ref_io, _ = pass Counting.Trie ~domains:1 plain (listed fams) in
      let all_witness = List.for_all (fun f -> Candidate.witnesses f <> None) fams in
      ref_freq = List.map brute fams
      && List.for_all
           (fun db ->
             List.for_all
               (fun domains ->
                 let freq, counted, io, skipped = pass Counting.Direct2 ~domains db fams in
                 freq = ref_freq && counted = ref_counted && io = ref_io
                 && ((not all_witness)
                    || List.for_all (fun f -> Candidate.count f = 0) fams
                    || skipped >= no_witness fams))
               domain_grid)
           [ plain; sharded ])
    [
      pick [ 0 ];
      pick [ 1 ];
      pick [ 2 ];
      pick [ 3 ];
      pick [ 0; 1 ];
      pick [ 2; 3 ];
      pick [ 0; 1; 2; 3 ];
      fams;
    ]

(* ------------------------------------------------------------------ *)
(* Rows at an offset: a disk scan hands the kernels each transaction    *)
(* inside one shared array                                              *)
(* ------------------------------------------------------------------ *)

(* Every transaction of the pass is laid out in one array between runs of
   every item up to the largest candidate item, which contain every
   candidate, so a kernel that read past either end of its row would count
   them.  Counting each row where it sits equals counting its own copy,
   for the trie on every family and for direct2 on every family it
   shapes. *)
let prop_rows_at_offset (txs, fams) =
  let own = Array.map Itemset.to_array txs in
  let top =
    List.fold_left (Array.fold_left (fun m s -> Itemset.fold max m s)) 0 fams
  in
  let junk = Array.init (top + 1) Fun.id in
  let shared = Array.concat (junk :: List.concat_map (fun r -> [ r; junk ]) (Array.to_list own)) in
  let offs = Array.make (Array.length own) 0 in
  let at = ref (Array.length junk) in
  Array.iteri
    (fun i r ->
      offs.(i) <- !at;
      at := !at + Array.length r + Array.length junk)
    own;
  let same_counts init count_row =
    let copied = init () and in_place = init () in
    Array.iteri
      (fun i r ->
        count_row copied (Array.copy r) 0 (Array.length r);
        count_row in_place shared offs.(i) (Array.length r))
      own;
    copied = in_place
  in
  List.for_all
    (fun cands ->
      let trie = Trie.build cands in
      same_counts (fun () -> Array.make (Trie.n_candidates trie) 0) (Trie.count_row trie)
      &&
      match Direct2.pair_items cands with
      | None -> true
      | Some items ->
          let d = Direct2.of_items [ items ] in
          let scratch = Direct2.scratch () in
          same_counts
            (fun () -> Direct2.init_cells d)
            (fun cells -> Direct2.count_row d cells scratch))
    fams

(* ------------------------------------------------------------------ *)
(* Trie early stop: dense and sparse nodes around a transaction's items *)
(* ------------------------------------------------------------------ *)

let test_trie_early_stop () =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let sets =
    (* the root: a dense span 10..19 *)
    List.map (fun i -> [ i ]) (range 10 19)
    (* under 12: a sparse node with keys below (13), inside (25) and above
       (60) the items that follow 12 *)
    @ [ [ 12; 13 ]; [ 12; 25 ]; [ 12; 60 ]; [ 12; 25; 40 ] ]
    (* under 15: a dense span 16..27 straddling the next item 25 *)
    @ List.map (fun k -> [ 15; k ]) (range 16 27)
    (* under 19: a dense span 50..59, all above the items *)
    @ List.map (fun k -> [ 19; k ]) (range 50 59)
    (* under 13: a sparse node whose keys all lie below the items *)
    @ [ [ 13; 14 ]; [ 13; 16 ] ]
  in
  let cands = Array.of_list (List.map Itemset.of_list sets) in
  let trie = Trie.build cands in
  let rng = Random.State.make [| 20 |] in
  let random_tx () =
    List.sort_uniq compare (List.init (Random.State.int rng 10) (fun _ -> Random.State.int rng 70))
  in
  let txs =
    [ []; [ 3; 5; 12; 15; 25; 40 ]; [ 12; 13; 25; 60 ]; [ 19; 50; 59; 100 ]; [ 13; 17; 99 ];
      [ 100 ]; range 0 70 ]
    @ List.init 300 (fun _ -> random_tx ())
  in
  let counts = Array.make (Trie.n_candidates trie) 0 in
  List.iter
    (fun tx ->
      let a = Array.of_list tx in
      Trie.count_row trie counts a 0 (Array.length a))
    txs;
  Array.iteri
    (fun i c ->
      let brute =
        List.length (List.filter (fun tx -> Itemset.subset c (Itemset.of_list tx)) txs)
      in
      Alcotest.(check int) ("support of " ^ Itemset.to_string c) brute counts.(i))
    cands

(* ------------------------------------------------------------------ *)
(* Direct2 admission                                                    *)
(* ------------------------------------------------------------------ *)

let test_direct2_cutoffs () =
  let budget = Counting.direct2_budget_words
  and sparsity = Counting.direct2_max_sparsity in
  Alcotest.(check int) "4M-word budget" (1 lsl 22) budget;
  Alcotest.(check int) "sparsity bound" 16 sparsity;
  Alcotest.(check bool)
    "fits" true
    (Counting.direct2_admissible ~n_cands:budget ~n_cells:budget);
  Alcotest.(check bool)
    "over budget" false
    (Counting.direct2_admissible ~n_cands:budget ~n_cells:(budget + 1));
  Alcotest.(check bool)
    "too sparse" false
    (Counting.direct2_admissible ~n_cands:10 ~n_cells:((10 * sparsity) + 1));
  Alcotest.(check bool)
    "sparsity boundary" true
    (Counting.direct2_admissible ~n_cands:10 ~n_cells:(10 * sparsity))

(* a dense database where every level up to 4 is populated *)
let dense_db () =
  Helpers.db_of_lists
    (List.init 24 (fun i ->
         if i mod 3 = 0 then [ 0; 1; 2; 3; 4 ]
         else if i mod 3 = 1 then [ 0; 1; 2; 3 ]
         else [ 1; 2; 3; 4; 5 ]))

(* ------------------------------------------------------------------ *)
(* Session bookkeeping: the kernels actually engage                     *)
(* ------------------------------------------------------------------ *)

let test_direct2_engages () =
  let db = dense_db () in
  let s = session_of Counting.Direct2 in
  let _ = mine_with ~session:s db 6 ~minsup:4 in
  let pc = Counting.pass_counts s in
  Alcotest.(check bool) "direct2 pass happened" true (pc.Counting.direct2_passes >= 1)

(* under direct2 level 1 reads the item histogram; the trie stays the
   reference *)
let test_level1_histogram () =
  let db = dense_db () in
  let l1_kernel kernel =
    let out, _ = mine_with ~session:(session_of kernel) db 6 ~minsup:4 in
    (List.find (fun r -> r.Level_stats.level = 1) (Level_stats.rows out.Apriori.stats))
      .Level_stats.kernel
  in
  Alcotest.(check string) "direct2 level 1" "direct2" (l1_kernel Counting.Direct2);
  Alcotest.(check string) "trie level 1" "trie" (l1_kernel Counting.Trie)

let test_kernel_names_roundtrip () =
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) "name" name (Counting.kernel_name k);
      match Counting.kernel_of_string name with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | None -> Alcotest.fail ("kernel_of_string failed on " ^ name))
    kernels;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " rejected") true
        (Counting.kernel_of_string name = None))
    [ "quantum"; "auto"; "vertical" ]

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
    Helpers.qtest ~count:25 "faults see the same walk under every kernel"
      gen_case print_case prop_faults_same_walk;
    unit "direct2 budget and sparsity cutoffs" test_direct2_cutoffs;
    unit "direct2 kernel engages on level 2" test_direct2_engages;
    unit "direct2 counts level 1 from the item histogram" test_level1_histogram;
    Helpers.qtest ~count:200 "mixed families in one pass match the trie" gen_mixed_pass
      print_mixed_pass prop_mixed_pass_grid;
    unit "trie nodes stop early and count exactly" test_trie_early_stop;
    Helpers.qtest ~count:100 "trie and direct2 count a row at an offset like its copy"
      gen_mixed_pass print_mixed_pass prop_rows_at_offset;
    unit "kernel names round-trip" test_kernel_names_roundtrip;
    unit "vertical scratch reuse matches single probes" test_vertical_scratch_reuse;
    unit "dhp bucket filter visible in level rows" test_dhp_rows;
    Helpers.qtest ~count:40 "constrained CAP runs count the same under every kernel and path"
      gen_mine print_mine prop_cap_counters_kernel_independent;
    Helpers.qtest ~count:150 "implicit level-1 and level-2 passes match explicit ones and brute force"
      gen_implicit_pass print_implicit_pass prop_implicit_passes;
    Helpers.qtest ~count:50 "witness-restricted passes match the unrestricted trie and brute force"
      gen_witness_pass
      (fun (txs, fams) -> print_implicit_pass (txs, fams, 0))
      prop_witness_passes;
  ]
