(** A bounded buffer pool over a segment's data region.

    Holds up to [capacity] page frames.  Replacement is the clock (second
    chance) algorithm: a hit sets the frame's reference bit; the hand
    clears reference bits until it finds an unreferenced, unpinned frame
    to evict.  Scans are the exception once every frame holds a page: a
    miss through {!with_scan_page} replaces the frame that the previous
    scan miss loaded (when it is unpinned), so a cyclic scan over [N]
    pages through [C < N] frames keeps [C - 1] of them hot from one pass
    to the next instead of evicting each page just before it is reused.
    Frames are pinned for the duration of {!with_page}, so
    concurrent [scan_chunks] readers in other domains can never have a
    page they are decoding evicted under them; if every frame is pinned,
    the read bypasses the pool through a transient buffer rather than
    blocking (counted as a miss, no insertion).

    Every physical page load verifies the page's raw CRC-32 against the
    footer value and raises [Cfq_error.Error (Corrupt_page _)] on
    mismatch.  Hits, misses and evictions are recorded into the
    {!Cfq_txdb.Io_stats} given at creation.

    Thread safety: only the frame-table bookkeeping (lookup, victim
    choice, pin counts) runs under the pool mutex.  A miss claims its
    frame in a {e loading} state, then performs the disk read and CRC
    verification with the mutex released, on a private file descriptor —
    so misses from different domains read in parallel, and hits never
    wait behind a disk read.  Concurrent requests for a page being
    loaded wait for that one load rather than re-reading.  The caller's
    [f] runs outside the mutex on a pinned frame.

    Read fds are opened on demand (one at {!create}, growing with
    concurrent misses up to a small cap); each lazily opened fd is
    verified by (device, inode) to still name the segment the pool was
    built for, so a pool serving a segment that was since atomically
    replaced keeps reading its original (old, still-valid) file. *)

open Cfq_txdb

type t

(** [create ~path ~page_size ~n_pages ~data_off ~crcs ~capacity ~stats ()]
    serves pages [0 .. n_pages - 1], page [p] living at file offset
    [data_off + p * page_size] of the file at [path] (as it exists now —
    see the identity check above).  [capacity] is clamped to at least
    1. *)
val create :
  path:string ->
  page_size:int ->
  n_pages:int ->
  data_off:int ->
  crcs:int array ->
  capacity:int ->
  stats:Io_stats.t ->
  unit ->
  t

(** [with_page t page f] runs [f] on the page's frame bytes, pinned.  [f]
    must not retain or mutate the buffer. *)
val with_page : t -> int -> (bytes -> 'a) -> 'a

(** [with_scan_page] is {!with_page} for a sequential scan: a miss on a
    full pool replaces the previous scan miss's frame, not the clock's
    victim. *)
val with_scan_page : t -> int -> (bytes -> 'a) -> 'a

(** Close the pool's file descriptors.  Idempotent.  Callers must have
    quiesced readers first; a later {!with_page} miss fails with
    [Invalid_argument] rather than reading through a dead fd. *)
val close : t -> unit

(** Frames currently holding a page (for tests and reports). *)
val resident : t -> int
