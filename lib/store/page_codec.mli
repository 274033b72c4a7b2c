(** Byte layout of transactions inside a segment's data region.

    The data region is a run of fixed-size pages packed exactly as
    {!Cfq_txdb.Page_model.assign} packs them: a transaction occupies
    [tx_bytes = tid_bytes + n_items * item_bytes] contiguous bytes, goes
    on the current page iff it fits in the remaining free bytes, and an
    oversized transaction owns [ceil (bytes / page_size)] dedicated pages
    (the next transaction starts on a fresh page).  Because layout and
    cost model coincide, the on-disk backend's page count — and therefore
    every page-charged I/O number — is identical to the in-memory
    backend's.

    Record encoding, little-endian: [tid : u32][n_items : u32] in the
    first 8 of the [tid_bytes] header bytes, then each item as a [u32] in
    the first 4 of its [item_bytes] slot; spare bytes are zero.  The page
    model must have [tid_bytes >= 8] and [item_bytes >= 4] (the default
    4 KB model does). *)

open Cfq_itembase
open Cfq_txdb

type layout = {
  pm : Page_model.t;
  sizes : int array;  (** item count per transaction *)
  offsets : int array;  (** byte offset of each record in the data region *)
  page_of : int array;  (** as {!Page_model.assign} *)
  pages : int;
}

(** Raises [Invalid_argument] if the page model cannot encode records. *)
val check_model : Page_model.t -> unit

(** [layout pm sizes] replays the packing and returns the full geometry. *)
val layout : Page_model.t -> int array -> layout

(** Stored size in bytes of transaction [i]. *)
val tx_bytes : layout -> int -> int

(** Total bytes of the data region: [pages * page_size]. *)
val data_bytes : layout -> int

(** [encode_tx l buf ~tid items] writes the record of transaction [tid]
    at its layout offset into [buf] (the whole data region). *)
val encode_tx : layout -> bytes -> tid:int -> Itemset.t -> unit

(** Decoded rows, reused from page to page: row [i] of the last
    {!decode_rows} is [items.(offs.(i)) .. items.(offs.(i + 1) - 1)] for
    [i < n], and [offs.(0) = 0].  The arrays grow as pages need and are
    never shrunk, so a scan that keeps one [rows] allocates nothing once
    it has seen its largest page. *)
type rows = {
  mutable items : int array;
  mutable offs : int array;
  mutable n : int;
}

val rows : unit -> rows

(** [decode_rows l buf ~base ~lo ~hi r] decodes records [lo..hi] into [r].
    [buf] holds the data region from byte [base] on (a page, or the
    gathered bytes of an oversized record).  Raises
    [Cfq_error.Error (Corrupt_page _)] at the first record whose stored
    tid, length or item order contradicts the layout; [r.n] then counts
    the records decoded before it, which stay readable. *)
val decode_rows : layout -> bytes -> base:int -> lo:int -> hi:int -> rows -> unit
