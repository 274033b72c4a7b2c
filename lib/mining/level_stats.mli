(** Per-level bookkeeping of a levelwise run, used for the paper's §7.1
    per-level table ([a/b] = sets computed by the optimized strategy vs all
    frequent sets). *)

type row = {
  level : int;
  candidates : int;  (** sets generated for this level *)
  counted : int;
      (** sets actually counted for support (fewer than [candidates] when a
          prefilter, e.g. the DHP hash buckets, discarded some first) *)
  frequent : int;  (** sets found frequent *)
  kernel : string;
      (** counting kernel that produced the supports of this level
          ("trie", "direct2", "dhp-bucket", ...) *)
}

type t

val create : unit -> t
val record : t -> row -> unit
val rows : t -> row list

val pp : Format.formatter -> t -> unit
