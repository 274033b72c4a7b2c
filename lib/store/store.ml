open Cfq_itembase
open Cfq_txdb

type recovery = {
  replayed : int;
  truncated_bytes : int;
}

type seal_info = {
  si_generation : int;
  si_base_txs : int;
  si_sealed_txs : int;
}

type t = {
  path : string;
  cache_pages : int;
  io : Io_stats.t;
  mutable seg : Segment.t;
  mutable pool : Buffer_pool.t;
  mutable db : Tx_db.t;
  (* segments superseded by a seal: their pool fds stay open until
     [close] so db handles obtained before the seal keep reading their
     (old, still-valid) snapshot instead of hitting a closed fd *)
  mutable stale : (Buffer_pool.t * Segment.t) list;
  mutable last_seal : seal_info option;
  wal : Wal.t;
  recovery : recovery;
}

let wal_path path = path ^ ".wal"

(* ------------------------------------------------------------------ *)
(* the Tx_db view: decode transactions on demand through the pool *)

let make_db seg pool =
  let l = seg.Segment.layout in
  let pm = seg.Segment.pm in
  let ps = pm.Page_model.page_size_bytes in
  let n = Array.length l.Page_codec.sizes in
  let read_tx tid =
    let off = l.Page_codec.offsets.(tid) in
    let len = Page_codec.tx_bytes l tid in
    let first = off / ps and last = (off + len - 1) / ps in
    if first = last then
      Buffer_pool.with_page pool first (fun buf ->
          Page_codec.decode_tx l ~tid buf ~at:(off mod ps))
    else begin
      (* oversized transaction spanning dedicated pages: gather *)
      let tmp = Bytes.create len in
      for p = first to last do
        let page_lo = p * ps in
        let lo = max off page_lo and hi = min (off + len) (page_lo + ps) in
        Buffer_pool.with_page pool p (fun buf ->
            Bytes.blit buf (lo - page_lo) tmp (lo - off) (hi - lo))
      done;
      Page_codec.decode_tx l ~tid tmp ~at:0
    end
  in
  (* a scan pins each page once and decodes all of its in-range
     transactions under that pin, delivering them after the unpin; a
     decode fault still delivers the page's earlier transactions first, so
     a failover resumes right after the last one delivered *)
  let one_page tid =
    let off = l.Page_codec.offsets.(tid) in
    off / ps = (off + Page_codec.tx_bytes l tid - 1) / ps
  in
  let iter ~lo ~hi f =
    let k = ref lo in
    while !k <= hi do
      if not (one_page !k) then begin
        f (read_tx !k);
        incr k
      end
      else begin
        let page = l.Page_codec.offsets.(!k) / ps in
        let decoded = ref [] and fault = ref None in
        Buffer_pool.with_page pool page (fun buf ->
            try
              while
                !k <= hi && one_page !k && l.Page_codec.offsets.(!k) / ps = page
              do
                let at = l.Page_codec.offsets.(!k) mod ps in
                decoded := Page_codec.decode_tx l ~tid:!k buf ~at :: !decoded;
                incr k
              done
            with Cfq_error.Error _ as e -> fault := Some e);
        List.iter f (List.rev !decoded);
        Option.iter raise !fault
      end
    done
  in
  let avg_tx_len =
    if n = 0 then 0.
    else
      float_of_int (Array.fold_left ( + ) 0 l.Page_codec.sizes) /. float_of_int n
  in
  Tx_db.of_backend ~page_model:pm ~pages:l.Page_codec.pages
    ~page_of:l.Page_codec.page_of ~checksums:seg.Segment.sums ~avg_tx_len ~iter
    ~get:read_tx ()

let attach ~cache_pages ~io seg =
  let pool =
    Buffer_pool.create ~path:seg.Segment.path
      ~page_size:seg.Segment.pm.Page_model.page_size_bytes
      ~n_pages:seg.Segment.layout.Page_codec.pages ~data_off:(Segment.data_off seg)
      ~crcs:seg.Segment.crcs ~capacity:cache_pages ~stats:io ()
  in
  (pool, make_db seg pool)

(* ------------------------------------------------------------------ *)

(* also reset the WAL: a leftover log from an earlier store at this path
   must not be replayed into the freshly built segment *)
let build ?page_model path txs =
  Segment.write ?page_model ~generation:0 path txs;
  Wal.reset (wal_path path) ~generation:0

let save_db ?page_model path db =
  let n = Tx_db.size db in
  let txs = Array.make n Itemset.empty in
  Tx_db.iter_range db ~lo:0 ~hi:(n - 1) (fun tx ->
      txs.(tx.Transaction.tid) <- tx.Transaction.items);
  build ?page_model path txs

(* fold [extra] WAL records into a next-generation segment at [path]
   (atomic rewrite, durable on return).  [seg] stays open — the caller
   decides when its readers have drained.  Returns the new generation. *)
let fold_into_segment seg path (extra : int array list) =
  let existing = Segment.read_all seg in
  let next = seg.Segment.generation + 1 in
  let all =
    Array.append existing
      (Array.of_list (List.map (fun items -> Itemset.of_array items) extra))
  in
  Segment.write ~page_model:seg.Segment.pm ~generation:next path all;
  next

let open_ ?(cache_pages = 1024) ?group_commit path =
  (* recovery.  The WAL header names the segment generation its records
     apply to; anything else (older generation, missing/torn header) is
     a leftover from before a durably completed fold and is discarded —
     never replayed a second time.  A matching WAL has its torn tail
     truncated and its valid records folded into a generation+1 segment
     (rename + dir fsync) BEFORE the WAL is reset, so a crash anywhere
     in between re-runs this same recovery without duplicating. *)
  let wp = wal_path path in
  let seg0 = Segment.open_ path in
  let s = Wal.scan wp in
  let current = s.Wal.generation = Some seg0.Segment.generation in
  let seg =
    if current && s.Wal.records <> [] then begin
      let next = fold_into_segment seg0 path s.Wal.records in
      Segment.close seg0;
      Wal.reset wp ~generation:next;
      Segment.open_ path
    end
    else begin
      if current then Wal.truncate_torn wp s
      else Wal.reset wp ~generation:seg0.Segment.generation;
      seg0
    end
  in
  let io = Io_stats.create () in
  let cache_pages = max 1 cache_pages in
  let pool, db = attach ~cache_pages ~io seg in
  {
    path;
    cache_pages;
    io;
    seg;
    pool;
    db;
    stale = [];
    last_seal = None;
    wal = Wal.open_append ?group_commit wp;
    recovery =
      (if current then
         { replayed = List.length s.Wal.records; truncated_bytes = s.Wal.torn_bytes }
       else { replayed = 0; truncated_bytes = 0 });
  }

let create ?page_model ?cache_pages ?group_commit path =
  Segment.write ?page_model ~generation:0 path [||];
  Wal.reset (wal_path path) ~generation:0;
  open_ ?cache_pages ?group_commit path

let db t = t.db
let append_tx t items = Wal.append t.wal (Itemset.to_array items)
let flush t = Wal.flush t.wal

let seal t =
  Wal.flush t.wal;
  let s = Wal.scan (wal_path t.path) in
  if s.Wal.records = [] || s.Wal.generation <> Some t.seg.Segment.generation then 0
  else begin
    let old_seg = t.seg and old_pool = t.pool in
    let base_txs = Tx_db.size t.db in
    let next = fold_into_segment old_seg t.path s.Wal.records in
    Wal.reset (wal_path t.path) ~generation:next;
    let seg = Segment.open_ t.path in
    let pool, db = attach ~cache_pages:t.cache_pages ~io:t.io seg in
    t.seg <- seg;
    t.pool <- pool;
    t.db <- db;
    (* keep the superseded segment readable until [close]: db handles
       handed out before this seal may still be mid-scan on it *)
    t.stale <- (old_pool, old_seg) :: t.stale;
    let sealed = List.length s.Wal.records in
    t.last_seal <-
      Some { si_generation = next; si_base_txs = base_txs; si_sealed_txs = sealed };
    sealed
  end

let close t =
  Wal.close t.wal;
  List.iter
    (fun (pool, seg) ->
      Buffer_pool.close pool;
      Segment.close seg)
    t.stale;
  t.stale <- [];
  Buffer_pool.close t.pool;
  Segment.close t.seg

(* ------------------------------------------------------------------ *)
(* page-level export / verify seam: positioned reads on the segment's own
   fd, deliberately bypassing the buffer pool — cached frames would mask
   on-disk rot.  Not safe to interleave with [seal] on the same handle
   (both reposition the segment fd); the scrubber runs between seals. *)

type page_fault_kind = Bad_crc | Bad_checksum
type page_fault = { pf_page : int; pf_kind : page_fault_kind }

let page_fault_kind_name = function
  | Bad_crc -> "bad-crc"
  | Bad_checksum -> "bad-checksum"

let page_faults_to_string faults =
  String.concat ", "
    (List.map
       (fun f -> Printf.sprintf "%d/%s" f.pf_page (page_fault_kind_name f.pf_kind))
       faults)

let pread_exact t ~off buf len =
  ignore (Unix.lseek t.seg.Segment.fd off Unix.SEEK_SET);
  let o = ref 0 in
  while !o < len do
    let r = Unix.read t.seg.Segment.fd buf !o (len - !o) in
    if r = 0 then
      Cfq_error.raise_error
        (Cfq_error.Corrupt_page
           { page = (off - Segment.data_off t.seg) / t.seg.Segment.pm.Page_model.page_size_bytes });
    o := !o + r
  done

(* raw bytes of data page [p], fresh from disk (no CRC check) *)
let read_page t p =
  let ps = t.seg.Segment.pm.Page_model.page_size_bytes in
  if p < 0 || p >= t.seg.Segment.layout.Page_codec.pages then
    invalid_arg "Store.read_page";
  let buf = Bytes.create ps in
  pread_exact t ~off:(Segment.data_off t.seg + (p * ps)) buf ps;
  buf

let verify_pages ?(throttle = fun ~page:_ -> ()) t =
  let seg = t.seg in
  let l = seg.Segment.layout in
  let ps = seg.Segment.pm.Page_model.page_size_bytes in
  let n = Array.length l.Page_codec.sizes in
  let n_pages = l.Page_codec.pages in
  let faults = ref [] in
  let crc_bad = Array.make (max 1 n_pages) false in
  let buf = Bytes.create ps in
  (* pass 1: raw CRC of every data page *)
  for p = 0 to n_pages - 1 do
    throttle ~page:p;
    (match pread_exact t ~off:(Segment.data_off seg + (p * ps)) buf ps with
    | () ->
        if Crc32.bytes buf <> seg.Segment.crcs.(p) then crc_bad.(p) <- true
    | exception Cfq_error.Error _ -> crc_bad.(p) <- true);
    if crc_bad.(p) then faults := { pf_page = p; pf_kind = Bad_crc } :: !faults
  done;
  (* pass 2: logical checksums — decode each page run's transactions from
     their byte extents and replay the rolling hash the scan layer checks.
     A page already condemned by its CRC is not re-reported here. *)
  let i = ref 0 in
  while !i < n do
    let page = l.Page_codec.page_of.(!i) in
    let h = ref Tx_db.Checksum.seed in
    let ok = ref true in
    let j = ref !i in
    while !j < n && l.Page_codec.page_of.(!j) = page do
      let off = l.Page_codec.offsets.(!j) in
      let len = Page_codec.tx_bytes l !j in
      let tmp = Bytes.create len in
      (try
         pread_exact t ~off:(Segment.data_off seg + off) tmp len;
         h := Tx_db.Checksum.add_tx !h (Page_codec.decode_tx l ~tid:!j tmp ~at:0)
       with Cfq_error.Error _ -> ok := false);
      incr j
    done;
    if (not crc_bad.(page)) && ((not !ok) || !h <> seg.Segment.sums.(page)) then
      faults := { pf_page = page; pf_kind = Bad_checksum } :: !faults;
    i := !j
  done;
  List.sort compare (List.rev !faults)

let read_all t = Segment.read_all t.seg

let size t = Tx_db.size t.db
let pages t = Tx_db.pages t.db
let page_model t = t.seg.Segment.pm
let universe_size t = t.seg.Segment.universe
let generation t = t.seg.Segment.generation
let io t = t.io
let last_recovery t = t.recovery
let last_seal t = t.last_seal
let wal_counters t = (Wal.appended t.wal, Wal.fsyncs t.wal)
let cache_pages t = t.cache_pages
let path t = t.path
