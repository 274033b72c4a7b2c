(* Counting speedup bench: wall-clock of the parallel counting engine at
   1/2/4 domains, on (a) one heavy level-2 counting pass (the pair-candidate
   explosion that dominates early levels) and (b) a full [Exec.run] of a
   2-var query under the default direct2 kernel; plus the trie against the
   direct kernels on the level-2 pass and on a level-1 pass of every item,
   two overlapping pair families counted from one shared triangle
   against one triangle each, level 2 from generation to absorb on
   the explicit and the implicit candidate path, and pair formation
   (join, pack, weigh) at the service's scale.
   Prints a table and writes the same rows machine-readably to
   BENCH_counting.json so the perf trajectory is diffable across PRs.

   Every parallel pass is checked against the sequential counts/answers
   before its timing is reported — a speedup over a wrong answer is not a
   speedup.

   The bench exits non-zero — only on a machine with at least as many
   cores as the widest row — when Exec.run misses 1.8x at the widest row
   or any multi-domain row regresses below sequential.  On narrower machines the
   speedup assertions are SKIPPED visibly (stdout + [speedup_valid] and
   per-row [valid] flags in the JSON), never silently passed. *)

open Cfq_itembase
open Cfq_quest
open Cfq_mining
open Cfq_core
open Cfq_report

let domain_grid = [ 1; 2; 4 ]

let cores = Domain.recommended_domain_count ()

type row = {
  r_domains : int;
  r_seconds : float;
  r_speedup : float;
  r_valid : bool;  (* oversubscribed rows carry timings, not conclusions *)
}

let time_best ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let rows_of ~repeats run =
  (* sequential first: it is both the baseline timing and the reference
     output every parallel run is compared against *)
  let base = time_best ~repeats (fun () -> run 1) in
  List.map
    (fun d ->
      let dt = if d = 1 then base else time_best ~repeats (fun () -> run d) in
      { r_domains = d; r_seconds = dt; r_speedup = base /. dt;
        r_valid = d <= cores })
    domain_grid

let print_rows title rows =
  let tbl = Table.create [ "domains"; "wall(s)"; "speedup" ] in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ string_of_int r.r_domains; Table.fcell r.r_seconds;
          Table.speedup_cell r.r_speedup ])
    rows;
  Printf.printf "\n%s\n" title;
  Table.print tbl

(* rows of (kernel, seconds, speedup vs the trie) *)
let print_kernel_rows title rows =
  let tbl = Table.create [ "kernel"; "wall(s)"; "vs trie" ] in
  List.iter
    (fun (name, s, sp) -> Table.add_row tbl [ name; Table.fcell s; Table.speedup_cell sp ])
    rows;
  Printf.printf "\n%s\n" title;
  Table.print tbl

let json_rows rows =
  String.concat ",\n"
    (List.map
       (fun r ->
         Printf.sprintf
           "      {\"domains\": %d, \"cores\": %d, \"seconds\": %.6f, \"speedup\": %.3f, \"valid\": %b}"
           r.r_domains cores r.r_seconds r.r_speedup r.r_valid)
       rows)

(* ---- pair formation at session scale ----
   Figure 7's last box on fixed seeded sides of 190 sets each (sizes 1-3
   over 1,000 items, prices uniform in [0, 1000), 10 types): a sort join
   ([max(S.Price) <= min(T.Price)]) and a hash join ([S.Type = T.Type]).
   Each join's pairs are checked against the nested loop over
   [Two_var.eval] first.  Per emitted pair: "form" is [Pairs.form] with a
   no-op callback; "pack" replays the join's runs into a fresh
   [Packed.packer] and finishes it, less "weigh", which is
   [Packed.weights] on the packed join.  Each is the best of 7 samples of
   ~50 ms. *)
let pairs_section () =
  let rng = Splitmix.create ~seed:20260706L in
  let n_items = 1000 and n_sets = 190 in
  let prices = Item_gen.uniform_prices rng ~n:n_items ~lo:0. ~hi:1000. in
  let types = Array.init n_items (fun _ -> float_of_int (Splitmix.int rng 10)) in
  let info = Item_gen.item_info ~prices ~types () in
  let side () =
    let sets = Itemset.Hashtbl.create n_sets in
    while Itemset.Hashtbl.length sets < n_sets do
      let size = match Splitmix.int rng 20 with 0 -> 3 | k when k < 8 -> 2 | _ -> 1 in
      let set = Itemset.of_list (List.init size (fun _ -> Splitmix.int rng n_items)) in
      Itemset.Hashtbl.replace sets set (1 + Splitmix.int rng 50)
    done;
    let entries =
      Itemset.Hashtbl.fold (fun set support acc -> { Frequent.set; support } :: acc) sets []
      |> Array.of_list
    in
    Array.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set) entries;
    entries
  in
  let valid_s = side () and valid_t = side () in
  let price = Item_gen.price_attr and typ = Item_gen.type_attr in
  let joins =
    [
      ("sort-join", Cfq_constr.Two_var.Agg2 (Cfq_constr.Agg.Max, price, Cfq_constr.Cmp.Le,
                                            Cfq_constr.Agg.Min, price));
      ("hash-join", Cfq_constr.Two_var.Set2 (typ, Cfq_constr.Two_var.Set_eq, typ));
    ]
  in
  let ns_per f n_pairs =
    let reps = ref 1 in
    while time_best ~repeats:1 (fun () -> for _ = 1 to !reps do f () done) < 0.05 do
      reps := 2 * !reps
    done;
    let best =
      time_best ~repeats:7 (fun () ->
          for _ = 1 to !reps do
            f ()
          done)
    in
    1e9 *. best /. float_of_int !reps /. float_of_int n_pairs
  in
  let rows =
    List.map
      (fun (name, c) ->
        let form ?on_run () =
          Pairs.form ~s_info:info ~t_info:info ~valid_s ~valid_t ~two_var:[ c ] ?on_run ()
        in
        let got = ref [] in
        let st = form ~on_run:(Pairs.pairwise (fun i j -> got := (i, j) :: !got)) () in
        let expected = ref [] in
        Array.iteri
          (fun i es ->
            Array.iteri
              (fun j et ->
                if Cfq_constr.Two_var.eval ~s_info:info ~t_info:info c es.Frequent.set
                     et.Frequent.set
                then expected := (i, j) :: !expected)
              valid_t)
          valid_s;
        if Pairs.join_method_name st.Pairs.join <> name
           || List.sort compare !got <> List.sort compare !expected
        then begin
          Printf.printf "FAIL: the %s pairs differ from the nested loop's\n" name;
          exit 1
        end;
        let n = st.Pairs.n_pairs in
        let runs = ref [] in
        ignore
          (form ~on_run:(fun i ts lo hi -> runs := (i, Array.sub ts lo (hi - lo)) :: !runs) ()
            : Pairs.stats);
        let runs = List.rev !runs in
        let pack () =
          let p = Cfq_service.Packed.packer valid_s valid_t in
          List.iter (fun (i, ts) -> Cfq_service.Packed.add_run p i ts 0 (Array.length ts)) runs;
          p
        in
        let full = pack () in
        let form_ns = ns_per (fun () -> ignore (form () : Pairs.stats)) n in
        let weigh_ns = ns_per (fun () -> ignore (Cfq_service.Packed.weights full : int * int)) n in
        let pack_ns =
          ns_per (fun () -> ignore (Cfq_service.Packed.finish (pack ()) : Cfq_service.Packed.weighed)) n
          -. weigh_ns
        in
        (name, n, form_ns, pack_ns, weigh_ns))
      joins
  in
  let tbl = Table.create [ "join"; "pairs"; "form ns/pair"; "pack ns/pair"; "weigh ns/pair" ] in
  List.iter
    (fun (name, n, f, p, w) ->
      Table.add_row tbl
        [ name; string_of_int n; Printf.sprintf "%.2f" f; Printf.sprintf "%.2f" p;
          Printf.sprintf "%.3f" w ])
    rows;
  Printf.printf "\npair formation (%d x %d sets; each join checked against the nested loop)\n"
    (Array.length valid_s) (Array.length valid_t);
  Table.print tbl;
  ( Array.length valid_s,
    Array.length valid_t,
    String.concat ",\n"
      (List.map
         (fun (name, n, f, p, w) ->
           Printf.sprintf
             "      {\"join\": %S, \"pairs\": %d, \"form_ns_per_pair\": %.3f, \
              \"pack_ns_per_pair\": %.3f, \"weigh_ns_per_pair\": %.4f}"
             name n f p w)
         rows) )

let run (scale : Workloads.scale) =
  Printf.printf
    "counting bench: %d transactions, %d items, %d core(s) available\n%!"
    scale.Workloads.n_tx scale.Workloads.n_items
    (Domain.recommended_domain_count ());

  (* ---- (a) one heavy level-2 pass: all pairs of frequent items ---- *)
  let db = Workloads.quest_db scale in
  let io = Cfq_txdb.Io_stats.create () in
  let minsup = max 1 (Cfq_txdb.Tx_db.size db / 200) in
  let freqs =
    Cfq_txdb.Tx_db.item_frequencies db io ~universe_size:scale.Workloads.n_items
  in
  let frequent_items = ref [] in
  Array.iteri (fun i f -> if f >= minsup then frequent_items := i :: !frequent_items) freqs;
  let cands = Candidate.pairs_all (Array.of_list !frequent_items) in
  (* one pass over listed families, each family's supports in candidate
     order *)
  let count ?par ?session families =
    List.map Counting.counts
      (Counting.count_pass ?par ?session db io
         (List.map (fun c -> (Counters.create (), Candidate.Sets c)) families))
  in
  Printf.printf "level-2 pass: %d pair candidates over %d transactions\n%!"
    (Array.length cands) (Cfq_txdb.Tx_db.size db);
  let reference = ref [||] in
  let level2_run d =
    let counts = List.hd (count ~par:(Counting.par ~min_rows_per_domain:1 d) [ cands ]) in
    if d = 1 then reference := counts
    else if counts <> !reference then begin
      Printf.printf "FAIL: level-2 counts at %d domains differ from sequential\n" d;
      exit 1
    end
  in
  let level2_rows = rows_of ~repeats:3 level2_run in
  print_rows "heavy level-2 counting pass" level2_rows;

  (* ---- (a') kernel comparison on the same level-2 pass ----
     trie vs direct2, both sequential so the comparison isolates the
     kernel.  Every kernel's counts are checked against the trie reference
     before its timing is reported. *)
  let count_with session = List.hd (count ?session [ cands ]) in
  let check_kernel name counts =
    if counts <> !reference then begin
      Printf.printf "FAIL: %s kernel counts differ from the trie reference\n" name;
      exit 1
    end
  in
  (* A sequential pass takes milliseconds, and load on a shared machine
     drifts over seconds.  So a sample repeats one kernel's pass for about
     0.3 s (a pass count fixed per kernel from one timed pass, so the fast
     kernel's samples are as long as the slow one's), the two kernels'
     samples run back to back, and the speedup is the median over eleven
     such pairs of the pair's own ratio: a drift slower than one pair
     cancels out of every ratio.  Seconds are each kernel's median
     sample. *)
  let per_pass_pair f g =
    let passes h = max 1 (int_of_float (ceil (0.3 /. time_best ~repeats:1 h))) in
    let timed h n =
      time_best ~repeats:1 (fun () ->
          for _ = 1 to n do
            h ()
          done)
      /. float_of_int n
    in
    let nf = passes f and ng = passes g in
    let samples =
      List.init 11 (fun _ ->
          let tf = timed f nf in
          let tg = timed g ng in
          (tf, tg))
    in
    let median l = List.nth (List.sort Float.compare l) (List.length l / 2) in
    ( median (List.map fst samples),
      median (List.map snd samples),
      median (List.map (fun (tf, tg) -> tf /. tg) samples) )
  in
  let trie_s, direct2_s, direct2_speedup =
    per_pass_pair
      (fun () -> check_kernel "trie" (count_with None))
      (fun () ->
        check_kernel "direct2" (count_with (Some (Counting.create_session Counting.Direct2))))
  in
  let kernel_rows = [ ("trie", trie_s, 1.); ("direct2", direct2_s, direct2_speedup) ] in
  print_kernel_rows "level-2 kernel comparison (sequential)" kernel_rows;
  if direct2_s > trie_s /. 2. then
    Printf.eprintf
      "warning: direct2 below the 2x target on this pass (%.4fs vs trie %.4fs)\n%!"
      direct2_s trie_s;

  (* ---- (a''') a shared level-2 pass ----
     two overlapping pair families in one pass, the shape of a dovetailed
     S/T level: all pairs over the first two thirds of the frequent items
     and all pairs over the last two thirds.  Both sides run the same
     sequential loop over [Direct2]: "two" ranks each row and counts it
     into each family's own triangle, as a pass does when the union is not
     admissible; "one" counts each row once into one triangle over both
     families' items ([Direct2.of_items]) and reads each family's supports
     off its candidates' cells.  Both are checked against the trie first, and
     [count_pass] under direct2 must share one triangle and agree. *)
  let sorted_items = Array.of_list (List.rev !frequent_items) in
  let n_freq = Array.length sorted_items in
  let fam_a = Candidate.pairs_all (Array.sub sorted_items 0 (2 * n_freq / 3))
  and fam_b = Candidate.pairs_all (Array.sub sorted_items (n_freq / 3) (n_freq - (n_freq / 3))) in
  let shared_ref = count [ fam_a; fam_b ] in
  let scan_into layouts =
    let layouts = Array.of_list layouts in
    let cells = Array.map Direct2.init_cells layouts in
    let scratch = Direct2.scratch () in
    Cfq_txdb.Tx_db.scan_rows db io (fun items off len ->
        for k = 0 to Array.length layouts - 1 do
          Direct2.count_row layouts.(k) cells.(k) scratch items off len
        done);
    Array.to_list cells
  in
  let items_of c = Option.get (Direct2.pair_items c) in
  let read d cells c =
    Array.map (fun s -> cells.(Direct2.cell d (Itemset.get s 0) (Itemset.get s 1))) c
  in
  let two_triangles () =
    let layouts = List.map (fun c -> Direct2.of_items [ items_of c ]) [ fam_a; fam_b ] in
    List.map2 (fun (d, cells) c -> read d cells c)
      (List.combine layouts (scan_into layouts)) [ fam_a; fam_b ]
  in
  let one_triangle () =
    let u = Direct2.of_items (List.map items_of [ fam_a; fam_b ]) in
    match scan_into [ u ] with
    | [ cells ] -> List.map (read u cells) [ fam_a; fam_b ]
    | _ -> assert false
  in
  let session = Counting.create_session Counting.Direct2 in
  List.iter
    (fun (name, f) ->
      if f () <> shared_ref then begin
        Printf.printf "FAIL: shared level-2 pass (%s) differs from the trie\n" name;
        exit 1
      end)
    [
      ("two triangles", two_triangles);
      ("one triangle", one_triangle);
      ("count_pass", fun () -> count ~session [ fam_a; fam_b ]);
    ];
  if (Counting.last_shape session).Counting.shared_families <> 2 then begin
    print_endline "FAIL: count_pass did not count the two families from one triangle";
    exit 1
  end;
  let two_s, one_s, shared_speedup =
    per_pass_pair (fun () -> ignore (two_triangles ())) (fun () -> ignore (one_triangle ()))
  in
  let shared_rows = [ ("two", two_s, 1.); ("one", one_s, shared_speedup) ] in
  let tbl = Table.create [ "triangles"; "wall(s)"; "vs two" ] in
  List.iter
    (fun (name, s, sp) -> Table.add_row tbl [ name; Table.fcell s; Table.speedup_cell sp ])
    shared_rows;
  Printf.printf "\nshared level-2 pass (sequential, %d + %d pair candidates)\n"
    (Array.length fam_a) (Array.length fam_b);
  Table.print tbl;

  (* ---- (a+) level 2 as the engine runs it ----
     from the frequent items of the heavy pass to its frequent pairs, one
     sequential direct2 pass each: "explicit" builds every pair as an
     itemset ([Candidate.pairs_all]) and counts them as a listed family,
     as [Cap] does when admission can reject a candidate; "implicit"
     counts the [Candidate.Pairs] form of the same items, as [Cap] does
     when it cannot.  Both box the frequent pairs in [Itemset.compare]
     order ([Counting.frequent], as [Cap.absorb] does) and must give the
     same frequent pairs. *)
  let level2_build form () =
    let session = Counting.create_session Counting.Direct2 in
    match Counting.count_pass ~session db io [ (Counters.create (), form ()) ] with
    | [ s ] -> Counting.frequent s ~minsup
    | _ -> assert false
  in
  let explicit_build = level2_build (fun () -> Candidate.Sets (Candidate.pairs_all sorted_items))
  and implicit_build = level2_build (fun () -> Candidate.Pairs sorted_items) in
  let frequent_pairs = implicit_build () in
  if explicit_build () <> frequent_pairs then begin
    print_endline "FAIL: the implicit level-2 path found other frequent pairs than the explicit one";
    exit 1
  end;
  let explicit_s, implicit_s, build_speedup =
    per_pass_pair (fun () -> ignore (explicit_build ())) (fun () -> ignore (implicit_build ()))
  in
  let build_rows = [ ("explicit", explicit_s, 1.); ("implicit", implicit_s, build_speedup) ] in
  let tbl = Table.create [ "path"; "wall(s)"; "vs explicit" ] in
  List.iter
    (fun (name, s, sp) -> Table.add_row tbl [ name; Table.fcell s; Table.speedup_cell sp ])
    build_rows;
  Printf.printf "\nlevel 2 from generation to absorb (sequential, %d candidates, %d frequent)\n"
    (Array.length cands) (Array.length frequent_pairs);
  Table.print tbl;

  (* ---- (a++) a witness-restricted level-2 pass ----
     one [Candidate.Witness_pairs] family, as [Cap] counts under a witness
     group: every pair of the frequent items holding one of a few
     witnesses, the frequent items of lowest id taken as witnesses until
     about a tenth of the rows hold one.  "trie" counts the pairs listed
     ([Candidate.Sets]) on the trie; "unrestricted" lists them under
     direct2, which knows no witness and walks every row; "restricted"
     counts the witness form under direct2, a rectangle over the rows
     holding a witness.  All three must give the same frequent pairs. *)
  let is_witness = Array.make scale.Workloads.n_items false in
  let witness_rows () =
    let n = ref 0 in
    Cfq_txdb.Tx_db.rows db ~lo:0 ~hi:(Cfq_txdb.Tx_db.size db - 1) (fun items off len ->
        let hit = ref false in
        for j = off to off + len - 1 do
          if is_witness.(items.(j)) then hit := true
        done;
        if !hit then incr n);
    !n
  in
  let witnesses =
    let target = Cfq_txdb.Tx_db.size db / 10 in
    let rec take acc = function
      | i :: rest when witness_rows () < target ->
          is_witness.(i) <- true;
          take (i :: acc) rest
      | _ -> List.rev acc
    in
    Array.of_list (take [] (Array.to_list sorted_items))
  in
  let witness_rows = witness_rows () in
  let witness_form = Candidate.Witness_pairs { items = sorted_items; witnesses } in
  let witness_listed = Candidate.Sets (Candidate.to_sets witness_form) in
  let witness_pass ?session form () =
    match Counting.count_pass ?session db io [ (Counters.create (), form) ] with
    | [ s ] -> Counting.frequent s ~minsup
    | _ -> assert false
  in
  let witness_trie = witness_pass witness_listed
  and witness_unrestricted () =
    witness_pass ~session:(Counting.create_session Counting.Direct2) witness_listed ()
  and witness_restricted () =
    witness_pass ~session:(Counting.create_session Counting.Direct2) witness_form ()
  in
  let witness_frequent = witness_trie () in
  List.iter
    (fun (name, f) ->
      if f () <> witness_frequent then begin
        Printf.printf "FAIL: the %s witness pass found other frequent pairs than the trie\n" name;
        exit 1
      end)
    [ ("unrestricted", witness_unrestricted); ("restricted", witness_restricted) ];
  let w_trie_s, w_unrestricted_s, w_unrestricted_speedup =
    per_pass_pair (fun () -> ignore (witness_trie ())) (fun () -> ignore (witness_unrestricted ()))
  in
  let _, w_restricted_s, w_restricted_speedup =
    per_pass_pair (fun () -> ignore (witness_trie ())) (fun () -> ignore (witness_restricted ()))
  in
  let witness_level2_rows =
    [
      ("trie", w_trie_s, 1.);
      ("unrestricted", w_unrestricted_s, w_unrestricted_speedup);
      ("restricted", w_restricted_s, w_restricted_speedup);
    ]
  in
  let tbl = Table.create [ "path"; "wall(s)"; "vs trie" ] in
  List.iter
    (fun (name, s, sp) -> Table.add_row tbl [ name; Table.fcell s; Table.speedup_cell sp ])
    witness_level2_rows;
  Printf.printf
    "\nwitness-restricted level-2 pass (sequential, %d candidates, %d witnesses on %d of %d rows, %d frequent)\n"
    (Candidate.count witness_form) (Array.length witnesses) witness_rows
    (Cfq_txdb.Tx_db.size db) (Array.length witness_frequent);
  Table.print tbl;

  (* ---- (a'') kernel comparison on a level-1 pass ----
     every item as a singleton: the trie against the item histogram,
     sequential, both checked against the exact item frequencies first *)
  let singles = Array.init scale.Workloads.n_items Itemset.singleton in
  let count_singles kernel =
    List.hd (count ~session:(Counting.create_session kernel) [ singles ])
  in
  List.iter
    (fun (name, kernel) ->
      if count_singles kernel <> freqs then begin
        Printf.printf "FAIL: %s level-1 counts differ from the item frequencies\n" name;
        exit 1
      end)
    Counting.all_kernels;
  let l1_trie_s, l1_hist_s, l1_speedup =
    per_pass_pair
      (fun () -> ignore (count_singles Counting.Trie))
      (fun () -> ignore (count_singles Counting.Direct2))
  in
  let level1_rows = [ ("trie", l1_trie_s, 1.); ("direct2", l1_hist_s, l1_speedup) ] in
  print_kernel_rows
    (Printf.sprintf
       "level-1 kernel comparison (sequential, %d singletons; direct2 = item histogram)"
       (Array.length singles))
    level1_rows;

  (* ---- (b) a full Exec.run of a 2-var query ---- *)
  let rng = Splitmix.create ~seed:(Int64.add scale.Workloads.seed 7L) in
  let n = scale.Workloads.n_items in
  let prices = Item_gen.uniform_prices rng ~n ~lo:0. ~hi:1000. in
  let types = Array.init n (fun _ -> float_of_int (Splitmix.int rng 20)) in
  let info = Item_gen.item_info ~prices ~types () in
  let ctx = Exec.context db info in
  let query_text =
    "{(S,T) | freq(S) >= 0.005 & freq(T) >= 0.005 & S.Price >= 300 & T.Price <= 700 \
     & S.Type = T.Type}"
  in
  let q = Parser.parse query_text in
  let sorted_pairs l =
    List.sort
      (fun (a1, b1) (a2, b2) ->
        match Itemset.compare a1 a2 with 0 -> Itemset.compare b1 b2 | c -> c)
      (List.map
         (fun (s, t) -> (s.Cfq_mining.Frequent.set, t.Cfq_mining.Frequent.set))
         l)
  in
  (* the trie run is the reference every other run must reproduce *)
  let trie_ref = Exec.run ~collect_pairs:true ~kernel:Counting.Trie ctx q in
  let ref_pairs = sorted_pairs trie_ref.Exec.pairs in
  let ref_counted = Exec.total_counted trie_ref in
  (* the default path under test: direct2 AND chunked parallelism in the
     same run; the kernel choice is a pure function of the candidates, so
     every domain count times identical work *)
  let exec_run d =
    let r =
      Exec.run ~collect_pairs:true
        ~par:(Counting.par ~min_rows_per_domain:1 d)
        ~kernel:Counting.Direct2 ctx q
    in
    if sorted_pairs r.Exec.pairs <> ref_pairs || Exec.total_counted r <> ref_counted
    then begin
      Printf.printf "FAIL: Exec.run at %d domains diverged from the trie answer\n" d;
      exit 1
    end
  in
  let exec_rows = rows_of ~repeats:2 exec_run in
  print_rows
    (Printf.sprintf "full Exec.run (kernel=direct2): %s" query_text)
    exec_rows;
  Printf.printf "\nanswers and counters identical to the trie at every domain count\n";

  let pairs_s, pairs_t, pairs_json = pairs_section () in

  (* ---- machine-readable record ---- *)
  let max_domains = List.fold_left max 1 domain_grid in
  let speedup_valid = max_domains <= cores in
  let kernel_json rows =
    String.concat ",\n"
      (List.map
         (fun (name, s, sp) ->
           Printf.sprintf
             "      {\"kernel\": %S, \"seconds\": %.6f, \"speedup_vs_trie\": %.3f}"
             name s sp)
         rows)
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"bench\": \"counting\",";
        Printf.sprintf "  \"cores\": %d," cores;
        Printf.sprintf "  \"speedup_valid\": %b," speedup_valid;
        Printf.sprintf "  \"transactions\": %d," (Cfq_txdb.Tx_db.size db);
        Printf.sprintf "  \"level2\": {";
        Printf.sprintf "    \"candidates\": %d," (Array.length cands);
        "    \"rows\": [";
        json_rows level2_rows;
        "    ]";
        "  },";
        "  \"kernels\": {";
        "    \"rows\": [";
        kernel_json kernel_rows;
        "    ]";
        "  },";
        "  \"shared_level2\": {";
        Printf.sprintf "    \"candidates\": [%d, %d]," (Array.length fam_a) (Array.length fam_b);
        "    \"rows\": [";
        String.concat ",\n"
          (List.map
             (fun (name, s, sp) ->
               Printf.sprintf
                 "      {\"triangles\": %S, \"seconds\": %.6f, \"speedup_vs_two\": %.3f}"
                 name s sp)
             shared_rows);
        "    ]";
        "  },";
        "  \"level2_build\": {";
        Printf.sprintf "    \"candidates\": %d," (Array.length cands);
        Printf.sprintf "    \"frequent\": %d," (Array.length frequent_pairs);
        "    \"rows\": [";
        String.concat ",\n"
          (List.map
             (fun (name, s, sp) ->
               Printf.sprintf
                 "      {\"path\": %S, \"seconds\": %.6f, \"speedup_vs_explicit\": %.3f}"
                 name s sp)
             build_rows);
        "    ]";
        "  },";
        "  \"witness_level2\": {";
        Printf.sprintf "    \"candidates\": %d," (Candidate.count witness_form);
        Printf.sprintf "    \"witnesses\": %d," (Array.length witnesses);
        Printf.sprintf "    \"witness_rows\": %d," witness_rows;
        Printf.sprintf "    \"frequent\": %d," (Array.length witness_frequent);
        "    \"rows\": [";
        String.concat ",\n"
          (List.map
             (fun (name, s, sp) ->
               Printf.sprintf
                 "      {\"path\": %S, \"seconds\": %.6f, \"speedup_vs_trie\": %.3f}"
                 name s sp)
             witness_level2_rows);
        "    ]";
        "  },";
        "  \"level1\": {";
        Printf.sprintf "    \"candidates\": %d," (Array.length singles);
        "    \"rows\": [";
        kernel_json level1_rows;
        "    ]";
        "  },";
        "  \"pairs\": {";
        Printf.sprintf "    \"sets\": [%d, %d]," pairs_s pairs_t;
        "    \"rows\": [";
        pairs_json;
        "    ]";
        "  },";
        "  \"exec_run\": {";
        "    \"kernel\": \"direct2\",";
        Printf.sprintf "    \"query\": %S," query_text;
        "    \"rows\": [";
        json_rows exec_rows;
        "    ]";
        "  }";
        "}";
      ]
  in
  let oc = open_out "BENCH_counting.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_counting.json";

  (* ---- assertions: fail loudly, skip visibly ---- *)
  let failed = ref false in
  if speedup_valid then begin
    List.iter
      (fun r ->
        if r.r_domains = max_domains && r.r_speedup < 1.8 then begin
          Printf.printf
            "FAIL: Exec.run at %d domains reaches %.2fx; target >= 1.8x\n"
            r.r_domains r.r_speedup;
          failed := true
        end
        else if r.r_domains > 1 && r.r_speedup < 0.95 then begin
          Printf.printf
            "FAIL: Exec.run at %d domains regresses to %.2fx of sequential\n"
            r.r_domains r.r_speedup;
          failed := true
        end)
      exec_rows;
    if not !failed then
      Printf.printf "PASS: Exec.run speedups hold on %d cores\n" cores
  end
  else
    (* the skip is part of the record: CI greps for it instead of treating
       an oversubscribed run as a pass *)
    Printf.printf
      "SKIP: speedup assertions skipped (%d core(s) < %d domains); rows \
       recorded with valid:false\n"
      cores max_domains;
  if !failed then exit 1
