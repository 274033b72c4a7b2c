open Cfq_itembase
open Cfq_constr

let run db io counters ~bundle ~minsup =
  let info = bundle.Bundle.info in
  let n = Item_info.universe_size info in
  if n > 20 then invalid_arg "Full_mat.run: universe too large for full materialization";
  let universe = Itemset.of_array (Array.init n (fun i -> i)) in
  (* phase 1: constraint-check the whole powerset *)
  let by_size = Hashtbl.create 16 in
  Itemset.powerset universe (fun s ->
      if not (Itemset.is_empty s) then begin
        Counters.add_constraint_checks counters 1;
        if Bundle.eval_originals bundle s then begin
          let k = Itemset.cardinal s in
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_size k) in
          Hashtbl.replace by_size k (s :: cur)
        end
      end);
  (* phase 2: count the valid sets in ascending cardinality, one scan per
     level, requiring every valid subset one size down to be frequent *)
  let freq_tbl = Itemset.Hashtbl.create 256 in
  let levels = ref [] in
  for k = 1 to n do
    let valid_k = Option.value ~default:[] (Hashtbl.find_opt by_size k) in
    (* countable: every valid subset one size down is frequent (a valid set
       with no valid subsets — e.g. under a superset constraint — is
       countable vacuously) *)
    let eligible =
      List.filter
        (fun s ->
          k = 1
          ||
          let ok = ref true in
          Itemset.iter_delete_one s (fun sub ->
              if
                Bundle.eval_originals bundle sub
                && not (Itemset.Hashtbl.mem freq_tbl sub)
              then ok := false);
          !ok)
        valid_k
    in
    let cands = Array.of_list eligible in
    if Array.length cands = 0 then levels := [||] :: !levels
    else begin
      let counts =
        Counting.counts (List.hd (Counting.count_pass db io [ (counters, Candidate.Sets cands) ]))
      in
      let entries = ref [] in
      Array.iteri
        (fun i s ->
          if counts.(i) >= minsup then begin
            Itemset.Hashtbl.replace freq_tbl s ();
            entries := { Frequent.set = s; support = counts.(i) } :: !entries
          end)
        cands;
      levels :=
        Array.of_list
          (List.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set)
             (List.rev !entries))
        :: !levels
    end
  done;
  Frequent.of_levels (List.rev !levels)
