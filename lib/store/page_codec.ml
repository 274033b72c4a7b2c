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

type rows = {
  mutable items : int array;
  mutable offs : int array;
  mutable n : int;
}

let rows () = { items = Array.make 256 0; offs = Array.make 64 0; n = 0 }

let corrupt l tid =
  Cfq_error.raise_error (Cfq_error.Corrupt_page { page = l.page_of.(tid) })

(* little-endian u32 loads, unchecked: [decode_rows] checks each record's
   extent against the buffer once *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let u32 buf i =
  let v = get32u buf i in
  Int32.to_int (if Sys.big_endian then bswap32 v else v)

let decode_rows l buf ~base ~lo ~hi r =
  r.n <- 0;
  if Array.length r.offs < hi - lo + 2 then
    r.offs <- Array.make (max (hi - lo + 2) (2 * Array.length r.offs)) 0;
  let ib = l.pm.Page_model.item_bytes and hb = l.pm.Page_model.tid_bytes in
  let pos = ref 0 in
  for tid = lo to hi do
    let at = l.offsets.(tid) - base in
    let n = l.sizes.(tid) in
    if at < 0 || at + hb + (n * ib) > Bytes.length buf then
      invalid_arg "Page_codec.decode_rows";
    let stored_tid = u32 buf at in
    let stored_n = u32 buf (at + 4) in
    if stored_tid <> tid || stored_n <> n then corrupt l tid;
    if Array.length r.items < !pos + n then begin
      let a = Array.make (max (!pos + n) (2 * Array.length r.items)) 0 in
      Array.blit r.items 0 a 0 !pos;
      r.items <- a
    end;
    let items = r.items and first = at + hb in
    (* strict increase is checked while the row fills: one pass *)
    let prev = ref min_int in
    for k = 0 to n - 1 do
      let it = u32 buf (first + (k * ib)) in
      if it <= !prev then corrupt l tid;
      Array.unsafe_set items (!pos + k) it;
      prev := it
    done;
    pos := !pos + n;
    r.offs.(tid - lo + 1) <- !pos;
    r.n <- tid - lo + 1
  done
