open Cfq_itembase

type t = {
  rank : int array;  (* item -> rank among candidate items, -1 if unranked *)
  row_base : int array;  (* rank i -> base s.t. cell (i < j) = base + j *)
  n_ranks : int;
  n_cells : int;
  cand_cell : int array;  (* candidate index -> its cell *)
}

let shape cands =
  let n = Array.length cands in
  if n = 0 then None
  else if not (Array.for_all (fun s -> Itemset.cardinal s = 2) cands) then None
  else begin
    let max_item = ref 0 in
    Array.iter
      (fun s ->
        match Itemset.max_item s with
        | Some i -> if i > !max_item then max_item := i
        | None -> ())
      cands;
    let rank = Array.make (!max_item + 1) (-1) in
    Array.iter (fun s -> Itemset.iter (fun i -> rank.(i) <- 0) s) cands;
    (* ranks in ascending item order, so transaction scans stay ordered *)
    let n_ranks = ref 0 in
    for i = 0 to !max_item do
      if rank.(i) = 0 then begin
        rank.(i) <- !n_ranks;
        incr n_ranks
      end
    done;
    let nr = !n_ranks in
    (* triangular layout: cell (i < j) = i*(2nr - i - 1)/2 + (j - i - 1) *)
    let row_base = Array.make (max nr 1) 0 in
    for i = 0 to nr - 1 do
      row_base.(i) <- (i * ((2 * nr) - i - 1) / 2) - i - 1
    done;
    let n_cells = nr * (nr - 1) / 2 in
    let cand_cell =
      Array.map
        (fun s ->
          let a = Itemset.get s 0 and b = Itemset.get s 1 in
          row_base.(rank.(a)) + rank.(b))
        cands
    in
    Some { rank; row_base; n_ranks = nr; n_cells; cand_cell }
  end

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
  let n_rank = Array.length rank in
  (* map the transaction to its ranked items; ranks ascend with items *)
  let m = ref 0 in
  for j = off to off + len - 1 do
    let item = Array.unsafe_get items j in
    if item < n_rank then begin
      let r = Array.unsafe_get rank item in
      if r >= 0 then begin
        Array.unsafe_set buf !m r;
        incr m
      end
    end
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
