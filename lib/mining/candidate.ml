open Cfq_itembase

type t =
  | Sets of Itemset.t array
  | Witness_sets of { sets : Itemset.t array; witnesses : Item.t array }
  | Items of Item.t array
  | Pairs of Item.t array
  | Witness_pairs of { items : Item.t array; witnesses : Item.t array }

let choose2 n = n * (n - 1) / 2

let count = function
  | Sets cands | Witness_sets { sets = cands; _ } -> Array.length cands
  | Items items -> Array.length items
  | Pairs items -> choose2 (Array.length items)
  | Witness_pairs { items; witnesses } ->
      let w = Array.length witnesses in
      (w * (Array.length items - w)) + choose2 w

(* canonical: each witness is paired with every non-witness item and with
   every larger witness, so no pair is made twice *)
let pairs_with_witness ~witnesses ~items =
  let ws = List.sort_uniq Item.compare (Array.to_list witnesses) in
  let is_w = Hashtbl.create 64 in
  List.iter (fun w -> Hashtbl.replace is_w w ()) ws;
  let others = List.filter (fun x -> not (Hashtbl.mem is_w x)) (Array.to_list items) in
  let rec go acc = function
    | [] -> acc
    | w :: larger ->
        let acc = List.fold_left (fun acc x -> Itemset.of_array [| w; x |] :: acc) acc others in
        go (List.fold_left (fun acc v -> Itemset.of_sorted_array [| w; v |] :: acc) acc larger) larger
  in
  Array.of_list (go [] ws)

let pairs_all items = pairs_with_witness ~witnesses:items ~items

let to_sets = function
  | Sets cands | Witness_sets { sets = cands; _ } -> cands
  | Items items -> Array.map Itemset.singleton items
  | Pairs items -> pairs_all items
  | Witness_pairs { items; witnesses } -> pairs_with_witness ~witnesses ~items

let items = function
  | Items items | Pairs items | Witness_pairs { items; _ } -> items
  | Sets _ | Witness_sets _ -> invalid_arg "Candidate.items: explicit candidates"

let witnesses = function
  | Witness_sets { witnesses; _ } | Witness_pairs { witnesses; _ } -> Some witnesses
  | Sets _ | Items _ | Pairs _ -> None

let filter p c =
  let sets = Array.of_seq (Seq.filter p (Array.to_seq (to_sets c))) in
  match witnesses c with
  | Some witnesses -> Witness_sets { sets; witnesses }
  | None -> Sets sets

let witness_mask = function
  | Pairs items -> Array.make (Array.length items) true
  | Witness_pairs { items; witnesses } ->
      let is_w = Hashtbl.create 64 in
      Array.iter (fun w -> Hashtbl.replace is_w w ()) witnesses;
      Array.map (Hashtbl.mem is_w) items
  | Sets _ | Witness_sets _ | Items _ -> invalid_arg "Candidate.witness_mask: not a pair form"

let iter_pairs c f =
  let marked = witness_mask c in
  let n = Array.length marked in
  for i = 0 to n - 2 do
    if marked.(i) then
      for j = i + 1 to n - 1 do
        f i j
      done
    else
      for j = i + 1 to n - 1 do
        if marked.(j) then f i j
      done
  done

let all_level_subsets_ok candidate ~check =
  let ok = ref true in
  Itemset.iter_delete_one candidate (fun sub -> if !ok && not (check sub) then ok := false);
  !ok

let apriori_gen ~prev ~prev_mem =
  let prev = Array.copy prev in
  Array.sort Itemset.compare prev;
  let n = Array.length prev in
  let out = ref [] in
  for i = 0 to n - 1 do
    let continue = ref true in
    let j = ref (i + 1) in
    while !continue && !j < n do
      (match Itemset.prefix_join prev.(i) prev.(!j) with
      | Some cand ->
          if all_level_subsets_ok cand ~check:prev_mem then out := cand :: !out
      | None ->
          (* sorted order: once the shared prefix breaks, no later join *)
          continue := false);
      incr j
    done
  done;
  Array.of_list !out

let extension_gen ~prev ~prev_mem ~ext_items ~is_witness =
  let ext_items = Array.copy ext_items in
  Array.sort Item.compare ext_items;
  let pool_eligible sub = Itemset.exists is_witness sub in
  let check sub = (not (pool_eligible sub)) || prev_mem sub in
  let out = ref [] in
  let emit s e =
    let cand = Itemset.add e s in
    if all_level_subsets_ok cand ~check then out := cand :: !out
  in
  (* iterate the sorted extension items from the first index exceeding a
     threshold *)
  let from_above threshold =
    let n = Array.length ext_items in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ext_items.(mid) <= threshold then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.iter
    (fun s ->
      let witnesses = Itemset.count is_witness s in
      let max_s = match Itemset.max_item s with Some m -> m | None -> -1 in
      if witnesses >= 2 then begin
        (* canonical parent of the candidate drops its maximum *)
        let start = from_above max_s in
        for i = start to Array.length ext_items - 1 do
          emit s ext_items.(i)
        done
      end
      else begin
        (* single witness w: non-witness extensions only need to clear the
           non-witness maximum; witness extensions must clear the overall
           maximum (the candidate then has two witnesses and must be the
           upward extension of its canonical parent) *)
        let w =
          match Itemset.to_list (Itemset.filter is_witness s) with
          | [ w ] -> w
          | _ -> assert false
        in
        let max_nonwitness =
          Itemset.fold (fun acc i -> if i <> w then max acc i else acc) (-1) s
        in
        let start = from_above max_nonwitness in
        for i = start to Array.length ext_items - 1 do
          let e = ext_items.(i) in
          if e <> w && ((not (is_witness e)) || e > max_s) then emit s e
        done
      end)
    prev;
  Array.of_list !out
