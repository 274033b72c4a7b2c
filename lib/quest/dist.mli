(** Sampling from the distributions used by the Quest generator and by the
    paper's workloads. *)

val uniform : Splitmix.t -> lo:float -> hi:float -> float

(** [normal rng ~mean ~stddev] *)
val normal : Splitmix.t -> mean:float -> stddev:float -> float

(** [normal_clamped] additionally clamps into [[lo, hi]]. *)
val normal_clamped : Splitmix.t -> mean:float -> stddev:float -> lo:float -> hi:float -> float

(** [poisson rng ~mean] (Knuth's method; [mean] must be modest, < ~700). *)
val poisson : Splitmix.t -> mean:float -> int

(** [exponential rng ~mean] *)
val exponential : Splitmix.t -> mean:float -> float

(** [pick_weighted rng cumulative] draws an index according to a cumulative
    weight array ([cumulative.(last)] is the total mass). *)
val pick_weighted : Splitmix.t -> float array -> int

(** [sample_without_replacement rng ~n ~k] draws [k] distinct ints from
    [0, n), sorted increasing. *)
val sample_without_replacement : Splitmix.t -> n:int -> k:int -> int array

(** [shuffle rng a] permutes [a] in place (Fisher–Yates). *)
val shuffle : Splitmix.t -> 'a array -> unit
