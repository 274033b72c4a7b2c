(** The paper's cost metric: total CPU + I/O time.

    CPU is measured; I/O is simulated from the paged store's scan counts
    (the experiments ran on a SPARC-10 against a disk, so I/O was real
    there; here the database is in memory and the page model supplies the
    would-be I/O volume). *)

open Cfq_txdb

type t = {
  seconds_per_page : float;
      (** simulated sequential-read cost per 4 KB page (default 100 µs,
          ~40 MB/s — a late-90s disk) *)
}

val default : t

val make : ?seconds_per_page:float -> unit -> t

(** [io_seconds t io] is the simulated I/O time of the recorded scans. *)
val io_seconds : t -> Io_stats.t -> float

(** [total t ~cpu io] = cpu + simulated I/O. *)
val total : t -> cpu:float -> Io_stats.t -> float

(** [mining_cost t r] is the step-1 cost only — lattice computation CPU plus
    I/O.  This is what the paper's speedups measure (Section 6.2: "we only
    focus on the performance of the first step"). *)
val mining_cost : t -> Cfq_core.Exec.result -> float
