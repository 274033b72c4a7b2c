open Cfq_itembase
open Cfq_txdb

type layout = {
  pm : Page_model.t;
  sizes : int array;
  offsets : int array;
  page_of : int array;
  pages : int;
}

let check_model (pm : Page_model.t) =
  if pm.Page_model.tid_bytes < 8 || pm.Page_model.item_bytes < 4 then
    invalid_arg
      "Cfq_store: page model needs tid_bytes >= 8 and item_bytes >= 4 to encode \
       records"

let layout pm sizes =
  check_model pm;
  let page_of, pages = Page_model.assign pm sizes in
  let ps = pm.Page_model.page_size_bytes in
  let offsets = Array.make (Array.length sizes) 0 in
  (* replay of Page_model.assign, tracking byte offsets *)
  let cur = ref 0 and free = ref 0 in
  Array.iteri
    (fun i n ->
      let b = Page_model.tx_bytes pm n in
      if b > ps then begin
        offsets.(i) <- !cur * ps;
        cur := !cur + ((b + ps - 1) / ps);
        free := 0
      end
      else if b <= !free then begin
        offsets.(i) <- (!cur * ps) - !free;
        free := !free - b
      end
      else begin
        offsets.(i) <- !cur * ps;
        incr cur;
        free := ps - b
      end)
    sizes;
  assert (!cur = pages);
  { pm; sizes; offsets; page_of; pages }

let tx_bytes l i = Page_model.tx_bytes l.pm l.sizes.(i)
let data_bytes l = l.pages * l.pm.Page_model.page_size_bytes

let encode_tx l buf ~tid items =
  let off = l.offsets.(tid) in
  Bytes.set_int32_le buf off (Int32.of_int tid);
  Bytes.set_int32_le buf (off + 4) (Int32.of_int (Itemset.cardinal items));
  let ib = l.pm.Page_model.item_bytes in
  let base = off + l.pm.Page_model.tid_bytes in
  let k = ref 0 in
  Itemset.iter
    (fun it ->
      Bytes.set_int32_le buf (base + (!k * ib)) (Int32.of_int it);
      incr k)
    items

let decode_tx l ~tid buf ~at =
  let corrupt () =
    Cfq_error.raise_error (Cfq_error.Corrupt_page { page = l.page_of.(tid) })
  in
  let stored_tid = Int32.to_int (Bytes.get_int32_le buf at) in
  let n = Int32.to_int (Bytes.get_int32_le buf (at + 4)) in
  if stored_tid <> tid || n <> l.sizes.(tid) then corrupt ();
  let ib = l.pm.Page_model.item_bytes in
  let base = at + l.pm.Page_model.tid_bytes in
  (* strict increase is checked while the array fills: one pass *)
  let items = Array.make n 0 in
  let prev = ref min_int in
  for k = 0 to n - 1 do
    let it = Int32.to_int (Bytes.get_int32_le buf (base + (k * ib))) in
    if it <= !prev then corrupt ();
    items.(k) <- it;
    prev := it
  done;
  Transaction.make ~tid ~items:(Itemset.unsafe_of_sorted_array items)
