open Cfq_itembase
open Cfq_txdb
open Cfq_mining

type outcome = {
  frequent : Frequent.t;
  c2_plain : int;
  c2_filtered : int;
  stats : Level_stats.t;
}

let bucket_of ~n_buckets i j = ((i * 92821) + j) mod n_buckets

let mine db io ~minsup ~universe_size ~n_buckets =
  if n_buckets <= 0 then invalid_arg "Dhp.mine: n_buckets";
  (* scan 1: item counts + pair-bucket counts *)
  let item_counts = Array.make universe_size 0 in
  let buckets = Array.make n_buckets 0 in
  Tx_db.iter_scan db io (fun tx ->
      let items = Itemset.unsafe_to_array tx.Transaction.items in
      let n = Array.length items in
      for a = 0 to n - 1 do
        item_counts.(items.(a)) <- item_counts.(items.(a)) + 1;
        for b = a + 1 to n - 1 do
          let h = bucket_of ~n_buckets items.(a) items.(b) in
          buckets.(h) <- buckets.(h) + 1
        done
      done);
  let l1 = ref [] in
  for i = universe_size - 1 downto 0 do
    if item_counts.(i) >= minsup then l1 := i :: !l1
  done;
  let l1 = Array.of_list !l1 in
  let stats = Level_stats.create () in
  Level_stats.record stats
    {
      Level_stats.level = 1;
      candidates = universe_size;
      counted = universe_size;
      frequent = Array.length l1;
      kernel = "dhp-fused";
    };
  let levels = ref [] in
  let push entries =
    let entries = Array.of_list entries in
    Array.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set) entries;
    levels := entries :: !levels
  in
  push
    (Array.to_list l1
    |> List.map (fun i -> { Frequent.set = Itemset.singleton i; support = item_counts.(i) }));
  (* level 2 with the hash filter *)
  let c2_plain = ref 0 and c2 = ref [] in
  Array.iteri
    (fun a i ->
      Array.iteri
        (fun b j ->
          if b > a then begin
            incr c2_plain;
            if buckets.(bucket_of ~n_buckets i j) >= minsup then
              c2 := Itemset.of_sorted_array [| i; j |] :: !c2
          end)
        l1)
    l1;
  let c2 = Array.of_list !c2 in
  let c2_filtered = Array.length c2 in
  let counters = Counters.create () in
  let count cands =
    Counting.counts (List.hd (Counting.count_pass db io [ (counters, Candidate.Sets cands) ]))
  in
  let counts = count c2 in
  let entries cands counts =
    let out = ref [] in
    Array.iteri
      (fun idx set ->
        if counts.(idx) >= minsup then
          out := { Frequent.set; support = counts.(idx) } :: !out)
      cands;
    !out
  in
  let lk = ref (entries c2 counts) in
  (* the row records the bucket filter's effect: [candidates] is what plain
     Apriori would count, [counted] what actually reached the pass *)
  Level_stats.record stats
    {
      Level_stats.level = 2;
      candidates = !c2_plain;
      counted = c2_filtered;
      frequent = List.length !lk;
      kernel = "dhp-bucket";
    };
  push !lk;
  (* levels >= 3: plain Apriori *)
  let continue = ref true in
  while !continue do
    let prev = Array.of_list (List.map (fun e -> e.Frequent.set) !lk) in
    let tbl = Itemset.Hashtbl.create (2 * Array.length prev) in
    Array.iter (fun s -> Itemset.Hashtbl.replace tbl s ()) prev;
    let cands = Candidate.apriori_gen ~prev ~prev_mem:(Itemset.Hashtbl.mem tbl) in
    if Array.length cands = 0 then continue := false
    else begin
      let counts = count cands in
      lk := entries cands counts;
      Level_stats.record stats
        {
          Level_stats.level = Itemset.cardinal cands.(0);
          candidates = Array.length cands;
          counted = Array.length cands;
          frequent = List.length !lk;
          kernel = "trie";
        };
      if !lk = [] then continue := false else push !lk
    end
  done;
  {
    frequent = Frequent.of_levels (List.rev !levels);
    c2_plain = !c2_plain;
    c2_filtered;
    stats;
  }
