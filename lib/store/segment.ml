open Cfq_itembase
open Cfq_txdb

let magic = "CFQSEG01"
let version = 2

(* header field offsets, all inside page 0 *)
let h_version = 8
let h_page_size = 12
let h_tid_bytes = 16
let h_item_bytes = 20
let h_n_txs = 24
let h_n_pages = 32
let h_universe = 40
let h_generation = 48
let h_crc = 56
let header_bytes = 60

type t = {
  path : string;
  fd : Unix.file_descr;
  pm : Page_model.t;
  layout : Page_codec.layout;
  crcs : int array;
  sums : int array;
  universe : int;
  generation : int;
}

exception Bad_segment of string

let bad path fmt = Printf.ksprintf (fun m -> raise (Bad_segment (path ^ ": " ^ m))) fmt

let data_off t = t.pm.Page_model.page_size_bytes

let write_all fd b off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let w = Unix.write fd b !off !len in
    off := !off + w;
    len := !len - w
  done

let read_exact fd b off len path =
  let off = ref off and len = ref len in
  while !len > 0 do
    let r = Unix.read fd b !off !len in
    if r = 0 then bad path "unexpected end of file";
    off := !off + r;
    len := !len - r
  done

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)

(* fsync the directory holding [path] so a rename into it survives a
   crash; best-effort where directories cannot be opened or fsynced *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)

let write ?(page_model = Page_model.default) ?(generation = 0) path itemsets =
  Page_codec.check_model page_model;
  let ps = page_model.Page_model.page_size_bytes in
  if ps < header_bytes then
    invalid_arg "Cfq_store: page size too small for the segment header";
  let sizes = Array.map Itemset.cardinal itemsets in
  let l = Page_codec.layout page_model sizes in
  let n = Array.length itemsets in
  (* data region *)
  let data = Bytes.make (Page_codec.data_bytes l) '\000' in
  Array.iteri (fun tid items -> Page_codec.encode_tx l data ~tid items) itemsets;
  (* per-page raw CRCs and logical checksums *)
  let crcs = Array.init l.Page_codec.pages (fun p -> Crc32.sub data (p * ps) ps) in
  let sums = Array.make l.Page_codec.pages Tx_db.Checksum.seed in
  let universe = ref 0 in
  Array.iteri
    (fun tid items ->
      let p = l.Page_codec.page_of.(tid) in
      let a = Itemset.unsafe_to_array items in
      sums.(p) <- Tx_db.Checksum.add_row sums.(p) tid a 0 (Array.length a);
      match Itemset.max_item items with
      | Some m -> if m + 1 > !universe then universe := m + 1
      | None -> ())
    itemsets;
  (* header page *)
  let header = Bytes.make ps '\000' in
  Bytes.blit_string magic 0 header 0 8;
  set_u32 header h_version version;
  set_u32 header h_page_size ps;
  set_u32 header h_tid_bytes page_model.Page_model.tid_bytes;
  set_u32 header h_item_bytes page_model.Page_model.item_bytes;
  set_u64 header h_n_txs n;
  set_u64 header h_n_pages l.Page_codec.pages;
  set_u64 header h_universe !universe;
  set_u64 header h_generation generation;
  set_u32 header h_crc (Crc32.sub header 0 h_crc);
  (* footer: sizes, raw crcs, logical sums, crc *)
  let footer = Bytes.create ((4 * n) + (4 * l.Page_codec.pages) + (8 * l.Page_codec.pages) + 4) in
  Array.iteri (fun i s -> set_u32 footer (4 * i) s) sizes;
  let o1 = 4 * n in
  Array.iteri (fun p c -> set_u32 footer (o1 + (4 * p)) c) crcs;
  let o2 = o1 + (4 * l.Page_codec.pages) in
  Array.iteri (fun p s -> set_u64 footer (o2 + (8 * p)) s) sums;
  let o3 = o2 + (8 * l.Page_codec.pages) in
  set_u32 footer o3 (Crc32.sub footer 0 o3);
  (* temp file + rename: a crash mid-write never clobbers the old segment *)
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd header 0 ps;
      write_all fd data 0 (Bytes.length data);
      write_all fd footer 0 (Bytes.length footer);
      Unix.fsync fd);
  Unix.rename tmp path;
  (* make the rename itself durable: recovery's idempotence argument
     needs the new segment on disk before the WAL is reset after it *)
  fsync_dir path

(* ------------------------------------------------------------------ *)

let open_ path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  match
    let file_size = (Unix.fstat fd).Unix.st_size in
    if file_size < header_bytes then bad path "too small to hold a header";
    let head = Bytes.create header_bytes in
    read_exact fd head 0 header_bytes path;
    if Bytes.sub_string head 0 8 <> magic then bad path "bad magic";
    if get_u32 head h_version <> version then
      bad path "unsupported version %d" (get_u32 head h_version);
    if Crc32.sub head 0 h_crc <> get_u32 head h_crc then bad path "header CRC mismatch";
    let ps = get_u32 head h_page_size in
    let pm =
      Page_model.make ~page_size_bytes:ps ~tid_bytes:(get_u32 head h_tid_bytes)
        ~item_bytes:(get_u32 head h_item_bytes) ()
    in
    let n = get_u64 head h_n_txs in
    let n_pages = get_u64 head h_n_pages in
    let footer_off = ps + (n_pages * ps) in
    let footer_len = (4 * n) + (4 * n_pages) + (8 * n_pages) + 4 in
    if file_size <> footer_off + footer_len then
      bad path "truncated: %d bytes, expected %d" file_size (footer_off + footer_len);
    let footer = Bytes.create footer_len in
    ignore (Unix.lseek fd footer_off Unix.SEEK_SET);
    read_exact fd footer 0 footer_len path;
    let o3 = footer_len - 4 in
    if Crc32.sub footer 0 o3 <> get_u32 footer o3 then bad path "footer CRC mismatch";
    let sizes = Array.init n (fun i -> get_u32 footer (4 * i)) in
    let o1 = 4 * n in
    let crcs = Array.init n_pages (fun p -> get_u32 footer (o1 + (4 * p))) in
    let o2 = o1 + (4 * n_pages) in
    let sums = Array.init n_pages (fun p -> get_u64 footer (o2 + (8 * p))) in
    let layout = Page_codec.layout pm sizes in
    if layout.Page_codec.pages <> n_pages then
      bad path "footer page count %d contradicts layout %d" n_pages
        layout.Page_codec.pages;
    {
      path;
      fd;
      pm;
      layout;
      crcs;
      sums;
      universe = get_u64 head h_universe;
      generation = get_u64 head h_generation;
    }
  with
  | seg -> seg
  | exception e ->
      Unix.close fd;
      raise e

let close t = Unix.close t.fd

let read_all t =
  let l = t.layout in
  let n = Array.length l.Page_codec.sizes in
  let data = Bytes.create (Page_codec.data_bytes l) in
  ignore (Unix.lseek t.fd (data_off t) Unix.SEEK_SET);
  read_exact t.fd data 0 (Bytes.length data) t.path;
  let r = Page_codec.rows () in
  Array.init n (fun tid ->
      Page_codec.decode_rows l data ~base:0 ~lo:tid ~hi:tid r;
      Itemset.unsafe_of_sorted_array (Array.sub r.Page_codec.items 0 r.Page_codec.offs.(1)))
