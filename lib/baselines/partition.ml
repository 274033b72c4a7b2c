open Cfq_itembase
open Cfq_txdb
open Cfq_mining

let mine db io ~minsup ~n_partitions ~universe_size =
  if n_partitions <= 0 then invalid_arg "Partition.mine: n_partitions";
  let n = Tx_db.size db in
  let n_partitions = max 1 (min n_partitions (max 1 n)) in
  let candidates = Itemset.Hashtbl.create 1024 in
  (* pass 1: mine each partition at the proportional local threshold *)
  let bounds =
    Array.init n_partitions (fun p ->
        (p * n / n_partitions, ((p + 1) * n / n_partitions) - 1))
  in
  let record_scan () = Io_stats.record_scan io ~pages:(Tx_db.pages db) ~tuples:n in
  record_scan ();
  Array.iter
    (fun (lo, hi) ->
      if hi >= lo then begin
        let size = hi - lo + 1 in
        (* ceil: a globally frequent set must reach the proportional share
           in at least one partition *)
        let local_minsup = max 1 (((minsup * size) + n - 1) / n) in
        let rows =
          Array.init size (fun r ->
              Itemset.unsafe_to_array (Tx_db.get db (lo + r)).Transaction.items)
        in
        (* local Eclat over the partition's tid sets; the rows are in
           memory, so the build charges nothing *)
        Tidset.build io (Tidset.Rows rows) (Array.init universe_size Fun.id)
        |> Tidset.mine ~minsup:local_minsup
        |> Frequent.iter (fun e ->
               Itemset.Hashtbl.replace candidates e.Frequent.set ())
      end)
    bounds;
  (* pass 2: exact global counts for the candidate union; an empty union
     still pays its scan, so the algorithm takes exactly two *)
  let cands = Array.of_seq (Itemset.Hashtbl.to_seq_keys candidates) in
  if Array.length cands = 0 then record_scan ();
  let counts =
    Counting.counts
      (List.hd (Counting.count_pass db io [ (Counters.create (), Candidate.Sets cands) ]))
  in
  let by_level = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if counts.(i) >= minsup then begin
        let k = Itemset.cardinal s in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_level k) in
        Hashtbl.replace by_level k ({ Frequent.set = s; support = counts.(i) } :: cur)
      end)
    cands;
  let max_k = Hashtbl.fold (fun k _ acc -> max k acc) by_level 0 in
  Frequent.of_levels
    (List.init max_k (fun i ->
         let entries =
           Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_level (i + 1)))
         in
         Array.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set) entries;
         entries))
