open Cfq_itembase
open Cfq_txdb
open Cfq_mining

type outcome = {
  frequent : Frequent.t;
  encoded_sizes : int list;
}

(* candidate id of the pair (i, j) over n level-1 items, i < j, in
   lexicographic order *)
let pair_id ~n i j = (i * ((2 * n) - i - 1) / 2) + (j - i - 1)

let mine db io ~minsup ~universe_size =
  (* pass 1: item counts *)
  let item_counts = Tx_db.item_frequencies db io ~universe_size in
  let l1_items = ref [] in
  for i = universe_size - 1 downto 0 do
    if item_counts.(i) >= minsup then l1_items := i :: !l1_items
  done;
  let l1_items = Array.of_list !l1_items in
  let n1 = Array.length l1_items in
  let l1_index = Array.make universe_size (-1) in
  Array.iteri (fun idx item -> l1_index.(item) <- idx) l1_items;
  let levels = ref [] in
  let push entries =
    let entries = Array.of_list entries in
    Array.sort (fun a b -> Itemset.compare a.Frequent.set b.Frequent.set) entries;
    levels := entries :: !levels
  in
  push
    (Array.to_list l1_items
    |> List.map (fun i -> { Frequent.set = Itemset.singleton i; support = item_counts.(i) }));
  (* pass 2: count the C2 pairs and encode each transaction as the sorted
     list of pair-candidate ids it contains; the database is not read again
     after this *)
  let n_c2 = n1 * (n1 - 1) / 2 in
  let c2_counts = Array.make n_c2 0 in
  let encoded = ref [] in
  Tx_db.iter_scan db io (fun tx ->
      let contained =
        Itemset.fold
          (fun acc item -> if l1_index.(item) >= 0 then l1_index.(item) :: acc else acc)
          [] tx.Transaction.items
        |> List.rev |> Array.of_list
      in
      let m = Array.length contained in
      if m >= 2 then begin
        let ids = Array.make (m * (m - 1) / 2) 0 in
        let w = ref 0 in
        for a = 0 to m - 1 do
          for b = a + 1 to m - 1 do
            let id = pair_id ~n:n1 contained.(a) contained.(b) in
            c2_counts.(id) <- c2_counts.(id) + 1;
            ids.(!w) <- id;
            incr w
          done
        done;
        Array.sort Int.compare ids;
        encoded := ids :: !encoded
      end);
  let encoded = ref (Array.of_list (List.rev !encoded)) in
  let encoded_sizes = ref [ Array.length !encoded ] in
  (* materialise L2 (sets + supports), and the old-candidate-id -> L_k index
     mapping used to reinterpret the encoded transactions *)
  let cand_to_lk = Array.make n_c2 (-1) in
  let l2 = ref [] in
  let n_l2 = ref 0 in
  for i = 0 to n1 - 1 do
    for j = i + 1 to n1 - 1 do
      let id = pair_id ~n:n1 i j in
      if c2_counts.(id) >= minsup then begin
        cand_to_lk.(id) <- !n_l2;
        incr n_l2;
        l2 :=
          { Frequent.set = Itemset.of_array [| l1_items.(i); l1_items.(j) |];
            support = c2_counts.(id) }
          :: !l2
      end
    done
  done;
  let lk = ref (Array.of_list (List.rev !l2)) in
  push (Array.to_list !lk);
  let cand_to_lk = ref cand_to_lk in
  (* deeper levels never touch the database *)
  let continue = ref (Array.length !lk > 0) in
  while !continue do
    let prev = !lk in
    (* generate C_{k+1} with generator indices into [prev] *)
    let prev_sets = Array.map (fun e -> e.Frequent.set) prev in
    let prev_tbl = Itemset.Hashtbl.create (2 * Array.length prev) in
    Array.iter (fun s -> Itemset.Hashtbl.replace prev_tbl s ()) prev_sets;
    let cands = ref [] and gens = Hashtbl.create 256 in
    let n_cands = ref 0 in
    for i = 0 to Array.length prev_sets - 1 do
      let broke = ref false in
      let j = ref (i + 1) in
      while (not !broke) && !j < Array.length prev_sets do
        (match Itemset.prefix_join prev_sets.(i) prev_sets.(!j) with
        | Some cand ->
            let ok = ref true in
            Itemset.iter_delete_one cand (fun sub ->
                if not (Itemset.Hashtbl.mem prev_tbl sub) then ok := false);
            if !ok then begin
              Hashtbl.replace gens (i, !j) !n_cands;
              cands := cand :: !cands;
              incr n_cands
            end
        | None -> broke := true);
        incr j
      done
    done;
    let cands = Array.of_list (List.rev !cands) in
    if Array.length cands = 0 then continue := false
    else begin
      let counts = Array.make (Array.length cands) 0 in
      (* reinterpret each encoded transaction: contained C_{k+1} candidates
         are joinable pairs of contained L_k members *)
      let next_encoded = ref [] in
      Array.iter
        (fun ids ->
          (* translate old candidate ids to current L_k indices *)
          let members =
            Array.to_seq ids
            |> Seq.filter_map (fun id ->
                   let v = !cand_to_lk.(id) in
                   if v >= 0 then Some v else None)
            |> Array.of_seq
          in
          let out = ref [] in
          let m = Array.length members in
          for a = 0 to m - 1 do
            for b = a + 1 to m - 1 do
              match Hashtbl.find_opt gens (members.(a), members.(b)) with
              | Some cid ->
                  counts.(cid) <- counts.(cid) + 1;
                  out := cid :: !out
              | None -> ()
            done
          done;
          if !out <> [] then begin
            let arr = Array.of_list !out in
            Array.sort Int.compare arr;
            next_encoded := arr :: !next_encoded
          end)
        !encoded;
      encoded := Array.of_list (List.rev !next_encoded);
      encoded_sizes := Array.length !encoded :: !encoded_sizes;
      let mapping = Array.make (Array.length cands) (-1) in
      let next_lk = ref [] and n_next = ref 0 in
      Array.iteri
        (fun cid set ->
          if counts.(cid) >= minsup then begin
            mapping.(cid) <- !n_next;
            incr n_next;
            next_lk := { Frequent.set; support = counts.(cid) } :: !next_lk
          end)
        cands;
      lk := Array.of_list (List.rev !next_lk);
      cand_to_lk := mapping;
      if Array.length !lk = 0 then continue := false else push (Array.to_list !lk)
    end
  done;
  { frequent = Frequent.of_levels (List.rev !levels); encoded_sizes = List.rev !encoded_sizes }
