open Cfq_txdb

type frame = {
  mutable page : int;  (* -1 = empty *)
  mutable pins : int;
  mutable referenced : bool;
  mutable loading : bool;  (* claimed, disk read in flight off-mutex *)
  buf : bytes;
}

type t = {
  path : string;
  identity : int * int;  (* (st_dev, st_ino) of the segment at create *)
  page_size : int;
  n_pages : int;
  data_off : int;
  crcs : int array;
  frames : frame array;
  slot_of : (int, int) Hashtbl.t;  (* page -> frame index *)
  mutable hand : int;
  mutable scan_slot : int;  (* frame a scan miss loaded most recently; -1 = none *)
  stats : Io_stats.t;
  mutex : Mutex.t;
  loaded : Condition.t;  (* signalled when a loading frame settles *)
  fd_free : Condition.t;  (* signalled when a read fd is returned *)
  mutable free_fds : Unix.file_descr list;
  mutable n_fds : int;  (* opened fds, free or borrowed *)
  max_fds : int;
  mutable closed : bool;
}

let create ~path ~page_size ~n_pages ~data_off ~crcs ~capacity ~stats () =
  let capacity = max 1 capacity in
  let fd0 = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let st = Unix.fstat fd0 in
  {
    path;
    identity = (st.Unix.st_dev, st.Unix.st_ino);
    page_size;
    n_pages;
    data_off;
    crcs;
    frames =
      Array.init capacity (fun _ ->
          {
            page = -1;
            pins = 0;
            referenced = false;
            loading = false;
            buf = Bytes.create page_size;
          });
    slot_of = Hashtbl.create (2 * capacity);
    hand = 0;
    scan_slot = -1;
    stats;
    mutex = Mutex.create ();
    loaded = Condition.create ();
    fd_free = Condition.create ();
    free_fds = [ fd0 ];
    n_fds = 1;
    max_fds = max 2 (min 16 (Domain.recommended_domain_count ()));
    closed = false;
  }

let resident t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.slot_of in
  Mutex.unlock t.mutex;
  n

(* open one more read fd — ONLY if [path] still names the segment this
   pool was built for (it may have been atomically replaced by a seal);
   a stale pool keeps serving through its original fds instead *)
let try_grow t =
  match Unix.openfile t.path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      let st = Unix.fstat fd in
      if (st.Unix.st_dev, st.Unix.st_ino) = t.identity then Some fd
      else begin
        Unix.close fd;
        None
      end

(* borrow a private read fd; caller holds the mutex.  Concurrent misses
   grow the fd count on demand up to [max_fds]; beyond that (or when the
   segment was renamed over) they wait — fds return as soon as the read
   completes. *)
let rec borrow_fd t =
  if t.closed then invalid_arg "Buffer_pool: closed";
  match t.free_fds with
  | fd :: rest ->
      t.free_fds <- rest;
      fd
  | [] -> (
      match if t.n_fds < t.max_fds then try_grow t else None with
      | Some fd ->
          t.n_fds <- t.n_fds + 1;
          fd
      | None ->
          Condition.wait t.fd_free t.mutex;
          borrow_fd t)

let return_fd t fd =
  Mutex.lock t.mutex;
  if t.closed then begin
    (* the pool was closed while this read was in flight *)
    t.n_fds <- t.n_fds - 1;
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    t.free_fds <- fd :: t.free_fds;
    Condition.signal t.fd_free
  end;
  Mutex.unlock t.mutex

(* physical read + CRC verify on a private fd: no pool lock held *)
let read_page t fd page buf =
  ignore (Unix.lseek fd (t.data_off + (page * t.page_size)) Unix.SEEK_SET);
  let off = ref 0 in
  while !off < t.page_size do
    let r = Unix.read fd buf !off (t.page_size - !off) in
    if r = 0 then Cfq_error.raise_error (Cfq_error.Corrupt_page { page })
    else off := !off + r
  done;
  if Crc32.bytes buf <> t.crcs.(page) then
    Cfq_error.raise_error (Cfq_error.Corrupt_page { page })

(* borrow an fd (mutex held on entry), read [page] with the mutex
   released, return the fd.  The mutex is released on every exit path. *)
let read_page_unlocked t page buf =
  match borrow_fd t with
  | exception e ->
      Mutex.unlock t.mutex;
      raise e
  | fd ->
      Mutex.unlock t.mutex;
      Fun.protect
        ~finally:(fun () -> return_fd t fd)
        (fun () -> read_page t fd page buf)

(* clock sweep for an evictable frame: skip pinned frames, give referenced
   frames a second chance.  [None] when every frame is pinned. *)
let find_victim t =
  let n = Array.length t.frames in
  let rec go steps =
    if steps > 2 * n then None
    else begin
      let slot = t.hand in
      let f = t.frames.(slot) in
      t.hand <- (t.hand + 1) mod n;
      if f.pins > 0 then go (steps + 1)
      else if f.referenced then begin
        f.referenced <- false;
        go (steps + 1)
      end
      else Some slot
    end
  in
  go 0

(* Scan resistance: once every frame holds a page, a scan miss replaces
   the frame the previous scan miss loaded, so a cyclic scan over more
   pages than frames cycles through one frame and leaves the other pages
   of the pool hot for its next pass.  The clock (a busy or absent scan
   frame, and every point read) picks the victim otherwise. *)
let choose_victim t ~scan =
  let s = t.scan_slot in
  if
    scan && s >= 0
    && Hashtbl.length t.slot_of >= Array.length t.frames
    && t.frames.(s).pins = 0
  then Some s
  else find_victim t

let unpin t fr =
  Mutex.lock t.mutex;
  fr.pins <- fr.pins - 1;
  Mutex.unlock t.mutex

(* run [f] on a pinned frame and unpin it on every exit path *)
let pinned t fr f =
  match f fr.buf with
  | v ->
      unpin t fr;
      v
  | exception e ->
      unpin t fr;
      raise e

let rec fetch t ~scan page f =
  if page < 0 || page >= t.n_pages then invalid_arg "Buffer_pool.with_page";
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.slot_of page with
  | Some slot ->
      let fr = t.frames.(slot) in
      if fr.loading then begin
        (* another reader is fetching this page: wait for it to settle
           (loaded or rolled back), then look the page up again *)
        Condition.wait t.loaded t.mutex;
        Mutex.unlock t.mutex;
        fetch t ~scan page f
      end
      else begin
        Io_stats.record_pool_hit t.stats;
        fr.referenced <- true;
        fr.pins <- fr.pins + 1;
        Mutex.unlock t.mutex;
        pinned t fr f
      end
  | None -> (
      Io_stats.record_pool_miss t.stats;
      match choose_victim t ~scan with
      | Some slot -> (
          let fr = t.frames.(slot) in
          if scan then t.scan_slot <- slot;
          if fr.page >= 0 then begin
            Hashtbl.remove t.slot_of fr.page;
            Io_stats.record_pool_eviction t.stats
          end;
          (* claim the frame before dropping the lock: [loading] plus a
             pin keep it off the clock, and concurrent readers of the
             same page queue on [loaded] instead of double-reading *)
          fr.page <- page;
          fr.loading <- true;
          fr.referenced <- true;
          fr.pins <- 1;
          Hashtbl.replace t.slot_of page slot;
          match read_page_unlocked t page fr.buf with
          | () ->
              Mutex.lock t.mutex;
              fr.loading <- false;
              Condition.broadcast t.loaded;
              Mutex.unlock t.mutex;
              pinned t fr f
          | exception e ->
              (* read_page_unlocked released the mutex whatever happened *)
              Mutex.lock t.mutex;
              Hashtbl.remove t.slot_of page;
              fr.page <- -1;
              fr.loading <- false;
              fr.referenced <- false;
              fr.pins <- 0;
              Condition.broadcast t.loaded;
              Mutex.unlock t.mutex;
              raise e)
      | None ->
          (* every frame pinned by concurrent readers: serve this read
             from a transient buffer instead of blocking the scan *)
          let buf = Bytes.create t.page_size in
          read_page_unlocked t page buf;
          f buf)

let with_page t page f = fetch t ~scan:false page f
let with_scan_page t page f = fetch t ~scan:true page f

let close t =
  Mutex.lock t.mutex;
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun fd ->
        t.n_fds <- t.n_fds - 1;
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.free_fds;
    t.free_fds <- [];
    (* wake fd waiters so they fail with "closed" instead of hanging *)
    Condition.broadcast t.fd_free
  end;
  Mutex.unlock t.mutex
