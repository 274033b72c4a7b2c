open Cfq_itembase

type t = {
  rank : int array;  (* item -> rank among candidate items, -1 if unranked *)
  row_base : int array;  (* rank i -> base s.t. cell (i < j) = base + j *)
  n_ranks : int;
  n_cells : int;
  cand_cell : int array;  (* candidate index -> its cell *)
}

(* The layout over the items marked [0] in [rank] (the rest hold -1):
   ranks ascend with items, so transaction scans stay ordered. *)
let layout rank =
  let nr = ref 0 in
  Array.iteri
    (fun i r ->
      if r = 0 then begin
        rank.(i) <- !nr;
        incr nr
      end)
    rank;
  let nr = !nr in
  (* triangular layout: cell (i < j) = i*(2nr - i - 1)/2 + (j - i - 1) *)
  let row_base = Array.init (max nr 1) (fun i -> (i * ((2 * nr) - i - 1) / 2) - i - 1) in
  { rank; row_base; n_ranks = nr; n_cells = nr * (nr - 1) / 2; cand_cell = [||] }

let view t cands =
  let rank_of i =
    if i < Array.length t.rank && t.rank.(i) >= 0 then t.rank.(i)
    else invalid_arg "Direct2.view: unranked item"
  in
  let cand_cell =
    Array.map
      (fun s ->
        if Itemset.cardinal s <> 2 then invalid_arg "Direct2.view: not a 2-set";
        t.row_base.(rank_of (Itemset.get s 0)) + rank_of (Itemset.get s 1))
      cands
  in
  { t with cand_cell }

let of_pairs cands =
  let n = Array.length cands in
  (* the largest item, or -1 unless every candidate is a 2-set, whose
     items are [get s 0 < get s 1] *)
  let rec max_item i m =
    if i = n then m
    else
      let s = Array.unsafe_get cands i in
      if Itemset.cardinal s <> 2 then -1 else max_item (i + 1) (max m (Itemset.get s 1))
  in
  let top = if n = 0 then -1 else max_item 0 0 in
  if top < 0 then None
  else begin
    let rank = Array.make (top + 1) (-1) in
    Array.iter
      (fun s ->
        rank.(Itemset.get s 0) <- 0;
        rank.(Itemset.get s 1) <- 0)
      cands;
    Some (layout rank)
  end

let shape cands = Option.map (fun t -> view t cands) (of_pairs cands)

let union ts =
  let size = List.fold_left (fun m t -> max m (Array.length t.rank)) 0 ts in
  let rank = Array.make size (-1) in
  List.iter (fun t -> Array.iteri (fun i r -> if r >= 0 then rank.(i) <- 0) t.rank) ts;
  layout rank

let n_distinct ts =
  let seen = Bytes.make (List.fold_left (fun m t -> max m t.n_cells) 0 ts) '\000' in
  List.fold_left
    (fun n t ->
      Array.fold_left
        (fun n cell ->
          if Bytes.get seen cell = '\000' then begin
            Bytes.set seen cell '\001';
            n + 1
          end
          else n)
        n t.cand_cell)
    0 ts

let n_cells t = t.n_cells
let n_ranks t = t.n_ranks
let init_cells t = Array.make t.n_cells 0

type scratch = { mutable buf : int array }

let scratch () = { buf = Array.make 64 0 }

let count_row t cells scratch items off len =
  if off < 0 || len < 0 || off + len > Array.length items then
    invalid_arg "Direct2.count_row";
  if Array.length scratch.buf < len then
    scratch.buf <- Array.make (max len (2 * Array.length scratch.buf)) 0;
  let buf = scratch.buf in
  let rank = t.rank in
  let n_rank = Array.length rank and n = off + len in
  (* map the transaction to its ranked items; ranks ascend with items.
     Every item's rank is stored and the cursor advances only past a
     ranked one (an unranked rank is -1, whose [asr 62] is -1), so the
     loop has no branch on the data; it stops at the first item past the
     rank table. *)
  let m = ref 0 and j = ref off in
  while !j < n && Array.unsafe_get items !j < n_rank do
    let r = Array.unsafe_get rank (Array.unsafe_get items !j) in
    Array.unsafe_set buf !m r;
    m := !m + 1 + (r asr 62);
    incr j
  done;
  let m = !m in
  let row_base = t.row_base in
  for a = 0 to m - 1 do
    let base = Array.unsafe_get row_base (Array.unsafe_get buf a) in
    for b = a + 1 to m - 1 do
      let cell = base + Array.unsafe_get buf b in
      Array.unsafe_set cells cell (Array.unsafe_get cells cell + 1)
    done
  done

let extract t cells = Array.map (fun cell -> cells.(cell)) t.cand_cell
