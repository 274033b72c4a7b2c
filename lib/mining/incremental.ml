open Cfq_itembase
open Cfq_txdb

type outcome = {
  frequent : Frequent.t;
  old_scans : int;
  counted_against_old : int;
}

let ceil_frac frac n = max 1 (int_of_float (Float.ceil (frac *. float_of_int n)))

let count_in db io cands =
  if Array.length cands = 0 then [||]
  else begin
    let trie = Trie.build cands in
    Tx_db.iter_scan db io (fun tx ->
        Trie.count_tx trie (Itemset.unsafe_to_array tx.Transaction.items));
    Trie.counts trie
  end

let update_abs ?max_level ?stats ~old_db ~old_frequent ~delta io ~old_minsup
    ~union_minsup ~universe_size () =
  if union_minsup < old_minsup then
    invalid_arg "Incremental.update_abs: union_minsup < old_minsup";
  (* 1. update every old frequent set with its count in the increment *)
  let old_sets =
    Array.of_list (List.map (fun e -> e.Frequent.set) (Frequent.to_list old_frequent))
  in
  let delta_counts = count_in delta io old_sets in
  let winners = ref [] in
  Array.iteri
    (fun i set ->
      let total =
        delta_counts.(i)
        + Option.value ~default:0 (Frequent.support old_frequent set)
      in
      if total >= union_minsup then
        winners := { Frequent.set; support = total } :: !winners)
    old_sets;
  (* 2. a set that was not frequent in the old database needs at least this
     much support inside the increment to be frequent overall *)
  let threshold_delta = max 1 (union_minsup - (old_minsup - 1)) in
  let delta_frequent =
    Tidset.mine (Tidset.of_db delta io ~universe_size) ~minsup:threshold_delta
  in
  let within_cap set =
    match max_level with None -> true | Some k -> Itemset.cardinal set <= k
  in
  let new_cands =
    Frequent.fold
      (fun acc e ->
        if Frequent.mem old_frequent e.Frequent.set || not (within_cap e.Frequent.set)
        then acc
        else e.Frequent.set :: acc)
      [] delta_frequent
    |> Array.of_list
  in
  let old_scans = ref 0 in
  if Array.length new_cands > 0 then begin
    incr old_scans;
    let old_counts = count_in old_db io new_cands in
    (* the delta supports of the new candidates are exact in delta_frequent *)
    Array.iteri
      (fun i set ->
        let total =
          old_counts.(i)
          + Option.value ~default:0 (Frequent.support delta_frequent set)
        in
        if total >= union_minsup then
          winners := { Frequent.set; support = total } :: !winners)
      new_cands
  end;
  (* per-level observability: candidates = old sets re-counted in the delta
     plus seeded newcomers; the kernel tag distinguishes the pure delta pass
     ("fup-delta") from a level that also paid the old-database count
     ("fup-old") *)
  (match stats with
  | None -> ()
  | Some lstats ->
      let levels = Hashtbl.create 8 in
      let bump set slot =
        let k = Itemset.cardinal set in
        let o, n, f =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt levels k)
        in
        Hashtbl.replace levels k
          (match slot with
          | `Old -> (o + 1, n, f)
          | `New -> (o, n + 1, f)
          | `Frequent -> (o, n, f + 1))
      in
      Array.iter (fun set -> bump set `Old) old_sets;
      Array.iter (fun set -> bump set `New) new_cands;
      List.iter (fun e -> bump e.Frequent.set `Frequent) !winners;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) levels []
      |> List.sort compare
      |> List.iter (fun (level, (o, n, f)) ->
             Level_stats.record lstats
               {
                 Level_stats.level;
                 candidates = o + n;
                 counted = o + n;
                 frequent = f;
                 kernel = (if n > 0 then "fup-old" else "fup-delta");
               }));
  {
    frequent = Frequent.of_entries !winners;
    old_scans = !old_scans;
    counted_against_old = Array.length new_cands;
  }

let update ~old_db ~old_frequent ~delta io ~minsup_frac ~universe_size =
  let n_old = Tx_db.size old_db and n_delta = Tx_db.size delta in
  let old_minsup = ceil_frac minsup_frac n_old in
  let union_minsup = ceil_frac minsup_frac (n_old + n_delta) in
  (* a shrinking fraction could in principle lower the union threshold below
     the old one; FUP's seeding argument needs it monotone *)
  let union_minsup = max union_minsup old_minsup in
  update_abs ~old_db ~old_frequent ~delta io ~old_minsup ~union_minsup ~universe_size
    ()
