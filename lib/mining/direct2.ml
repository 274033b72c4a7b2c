open Cfq_itembase

type t = {
  rank : int array;  (* item -> rank among the layout's items, -1 if unranked *)
  row_base : int array;
      (* the triangle: rank i -> base s.t. cell (i < j) = base + j.  The
         rectangle: witness rank i -> its row's first cell, so cell (i, j)
         = base + j for any rank j; -1 at a non-witness rank *)
  n_ranked : int;
  n_cells : int;
  wit : Bytes.t;
      (* the rectangle: item -> 1 for a ranked witness, 0 otherwise; empty
         for the triangle *)
}

let ranking items =
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
  (rank, !nr)

let of_items ?witnesses items =
  let rank, nr = ranking items in
  match witnesses with
  | None ->
      (* triangular layout: cell (i < j) = i*(2nr - i - 1)/2 + (j - i - 1) *)
      let row_base = Array.init (max nr 1) (fun i -> (i * ((2 * nr) - i - 1) / 2) - i - 1) in
      { rank; row_base; n_ranked = nr; n_cells = nr * (nr - 1) / 2; wit = Bytes.empty }
  | Some ws ->
      (* rectangular layout: one row of [nr] cells per ranked witness, in
         rank order; a pair is counted in the row of its smaller witness *)
      let wit = Bytes.make (Array.length rank) '\000' in
      Array.iter
        (fun w -> if w >= 0 && w < Array.length rank && rank.(w) >= 0 then Bytes.set wit w '\001')
        ws;
      let row_base = Array.make (max nr 1) (-1) and nw = ref 0 in
      Array.iteri
        (fun i r ->
          if r >= 0 && Bytes.get wit i = '\001' then begin
            row_base.(r) <- !nw * nr;
            incr nw
          end)
        rank;
      { rank; row_base; n_ranked = nr; n_cells = !nw * nr; wit }

let restricted t = Bytes.length t.wit > 0

let n_witness_cells ~items ~witnesses =
  let nr = Array.length items in
  let is_item = Hashtbl.create (max 16 nr) in
  Array.iter (fun i -> Hashtbl.replace is_item i ()) items;
  let nw = List.length (List.filter (Hashtbl.mem is_item) (List.sort_uniq compare (Array.to_list witnesses))) in
  nw * nr

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
let row_contiguous t ra = (not (restricted t)) || row_base t ra >= 0

let rank_cell t ra rb =
  let b = row_base t ra in
  if restricted t && b < 0 then row_base t rb + ra else b + rb

let cell t a b =
  if a >= b then invalid_arg "Direct2.cell: not an ascending pair";
  let ra = rank_of t a and rb = rank_of t b in
  if restricted t && row_base t ra < 0 && row_base t rb < 0 then
    invalid_arg "Direct2.cell: a pair with no witness";
  rank_cell t ra rb

let n_cells t = t.n_cells
let init_cells t = Array.make t.n_cells 0

type scratch = { mutable buf : int array; mutable isw : Bytes.t }

let scratch () = { buf = Array.make 64 0; isw = Bytes.make 64 '\000' }

(* Every ranked pair of the row into the triangle. *)
let count_row_all t cells scratch items off len =
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

(* The pairs of the row holding a witness into the rectangle, each in the
   row of its smaller witness: a witness at position [a] takes every later
   item and every earlier non-witness.  The ranked items go to [buf] and
   their witness bytes to [isw], both written every step, so the ranking
   loop has no branch on the data; a row with no witness costs that loop
   only. *)
let count_row_witness t cells scratch items off len =
  if Bytes.length scratch.isw < Array.length scratch.buf then
    scratch.isw <- Bytes.make (Array.length scratch.buf) '\000';
  let buf = scratch.buf and isw = scratch.isw in
  let rank = t.rank and wit = t.wit in
  let n_rank = Array.length rank and n = off + len in
  let m = ref 0 and nw = ref 0 and j = ref off in
  while !j < n && Array.unsafe_get items !j < n_rank do
    let i = Array.unsafe_get items !j in
    let r = Array.unsafe_get rank i and w = Bytes.unsafe_get wit i in
    Array.unsafe_set buf !m r;
    Bytes.unsafe_set isw !m w;
    nw := !nw + Char.code w;
    m := !m + 1 + (r asr 62);
    incr j
  done;
  let m = !m in
  if !nw > 0 then begin
    let row_base = t.row_base in
    for a = 0 to m - 1 do
      if Bytes.unsafe_get isw a = '\001' then begin
        let base = Array.unsafe_get row_base (Array.unsafe_get buf a) in
        for b = 0 to a - 1 do
          if Bytes.unsafe_get isw b = '\000' then begin
            let cell = base + Array.unsafe_get buf b in
            Array.unsafe_set cells cell (Array.unsafe_get cells cell + 1)
          end
        done;
        for b = a + 1 to m - 1 do
          let cell = base + Array.unsafe_get buf b in
          Array.unsafe_set cells cell (Array.unsafe_get cells cell + 1)
        done
      end
    done
  end

let count_row t cells scratch items off len =
  if off < 0 || len < 0 || off + len > Array.length items then
    invalid_arg "Direct2.count_row";
  if Array.length scratch.buf < len then
    scratch.buf <- Array.make (max len (2 * Array.length scratch.buf)) 0;
  if restricted t then count_row_witness t cells scratch items off len
  else count_row_all t cells scratch items off len
