open Cfq_itembase

type t = {
  rank : int array;  (* item -> rank among the layout's items, -1 if unranked *)
  row_base : int array;  (* rank i -> base s.t. cell (i < j) = base + j *)
  n_cells : int;
}

let of_items items =
  let size = List.fold_left (Array.fold_left (fun m i -> max m (i + 1))) 0 items in
  let rank = Array.make size (-1) in
  List.iter (Array.iter (fun i -> rank.(i) <- 0)) items;
  (* ranks ascend with items, so transaction scans stay ordered *)
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
  { rank; row_base; n_cells = nr * (nr - 1) / 2 }

let pair_items cands =
  if Array.length cands = 0 || Array.exists (fun s -> Itemset.cardinal s <> 2) cands then None
  else begin
    (* a 2-set's items are [get s 0 < get s 1] *)
    let top = Array.fold_left (fun m s -> max m (Itemset.get s 1)) 0 cands in
    let seen = Array.make (top + 1) false in
    Array.iter (fun s -> seen.(Itemset.get s 0) <- true; seen.(Itemset.get s 1) <- true) cands;
    Some (Array.of_list (List.filter (Array.get seen) (List.init (top + 1) Fun.id)))
  end

let rank_of t i =
  if i >= 0 && i < Array.length t.rank && t.rank.(i) >= 0 then t.rank.(i)
  else invalid_arg "Direct2: unranked item"

let ranks t items = Array.map (rank_of t) items
let row_base t ra = Array.unsafe_get t.row_base ra
let rank_cell t ra rb = row_base t ra + rb

let cell t a b =
  if a >= b then invalid_arg "Direct2.cell: not an ascending pair";
  rank_cell t (rank_of t a) (rank_of t b)

let n_cells t = t.n_cells
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
