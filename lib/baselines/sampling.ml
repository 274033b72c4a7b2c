open Cfq_itembase
open Cfq_txdb
open Cfq_mining

type outcome = {
  frequent : Frequent.t;
  rounds : int;
  sample_size : int;
}

(* negative border of a downward-closed collection: the minimal missing
   sets, i.e. X ∉ F with every (|X|-1)-subset in F *)
let negative_border ~universe_size (f : unit Itemset.Hashtbl.t) =
  let border = ref [] in
  (* singletons *)
  for i = 0 to universe_size - 1 do
    if not (Itemset.Hashtbl.mem f (Itemset.singleton i)) then
      border := Itemset.singleton i :: !border
  done;
  (* group members by level, join within levels *)
  let by_level = Hashtbl.create 16 in
  Itemset.Hashtbl.iter
    (fun s () ->
      let k = Itemset.cardinal s in
      Hashtbl.replace by_level k (s :: Option.value ~default:[] (Hashtbl.find_opt by_level k)))
    f;
  Hashtbl.iter
    (fun _k sets ->
      let cands =
        Candidate.apriori_gen ~prev:(Array.of_list sets) ~prev_mem:(Itemset.Hashtbl.mem f)
      in
      Array.iter
        (fun c -> if not (Itemset.Hashtbl.mem f c) then border := c :: !border)
        cands)
    by_level;
  List.sort_uniq Itemset.compare !border

(* deterministic hash-based Bernoulli sample *)
let in_sample ~seed ~sample_frac tid =
  let h = (tid * 2654435761) lxor (seed * 40503) in
  let h = (h lxor (h lsr 16)) land 0xFFFF in
  float_of_int h /. 65536. < sample_frac

let mine db io ~minsup ~universe_size ~sample_frac ?(lower = 0.8) ?(seed = 1) () =
  if sample_frac <= 0. || sample_frac > 1. then invalid_arg "Sampling.mine: sample_frac";
  (* pass 0: draw the sample *)
  let sample = ref [] in
  let sample_size = ref 0 in
  Tx_db.iter_scan db io (fun tx ->
      if in_sample ~seed ~sample_frac tx.Transaction.tid then begin
        incr sample_size;
        sample := tx.Transaction.items :: !sample
      end);
  let sample_db = Tx_db.create (Array.of_list !sample) in
  let rel_minsup = float_of_int minsup /. float_of_int (Tx_db.size db) in
  let sample_minsup =
    max 1 (int_of_float (Float.round (lower *. rel_minsup *. float_of_int !sample_size)))
  in
  (* in-memory mining of the sample (scan accounting ignores the sample: it
     fits in memory, that is the algorithm's point) *)
  let sample_io = Io_stats.create () in
  let sample_frequent =
    Tidset.mine (Tidset.of_db sample_db sample_io ~universe_size) ~minsup:sample_minsup
  in
  (* iterate: count candidates ∪ negative border until the border is
     certified infrequent *)
  let supports = Itemset.Hashtbl.create 1024 in
  let known_frequent = Itemset.Hashtbl.create 1024 in
  Frequent.iter
    (fun e -> Itemset.Hashtbl.replace known_frequent e.Frequent.set ())
    sample_frequent;
  let rounds = ref 0 in
  let stable = ref false in
  while not !stable do
    incr rounds;
    let border = negative_border ~universe_size known_frequent in
    let to_count =
      List.filter (fun s -> not (Itemset.Hashtbl.mem supports s)) border
      @ Itemset.Hashtbl.fold
          (fun s () acc -> if Itemset.Hashtbl.mem supports s then acc else s :: acc)
          known_frequent []
    in
    if to_count = [] then stable := true
    else begin
      let cands = Array.of_list to_count in
      let counts =
        Counting.counts
          (List.hd (Counting.count_pass db io [ (Counters.create (), Candidate.Sets cands) ]))
      in
      Array.iteri (fun i s -> Itemset.Hashtbl.replace supports s counts.(i)) cands;
      (* expand around any border set that is globally frequent *)
      let grew = ref false in
      List.iter
        (fun s ->
          match Itemset.Hashtbl.find_opt supports s with
          | Some n when n >= minsup ->
              if not (Itemset.Hashtbl.mem known_frequent s) then begin
                Itemset.Hashtbl.replace known_frequent s ();
                grew := true
              end
          | Some _ | None -> ())
        border;
      (* drop sample-frequent sets that are not globally frequent *)
      Itemset.Hashtbl.iter
        (fun s n -> if n < minsup then Itemset.Hashtbl.remove known_frequent s)
        (Itemset.Hashtbl.copy supports);
      if not !grew then stable := true
    end
  done;
  let frequent =
    Frequent.of_entries
      (Itemset.Hashtbl.fold
         (fun set support acc ->
           if support >= minsup then { Frequent.set; support } :: acc else acc)
         supports [])
  in
  { frequent; rounds = !rounds; sample_size = !sample_size }
