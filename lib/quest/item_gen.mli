(** Attribute (itemInfo) generators for the paper's workloads. *)

open Cfq_itembase

(** [uniform_prices rng ~n ~lo ~hi] draws one price per item, uniform in
    [[lo, hi]]. *)
val uniform_prices : Splitmix.t -> n:int -> lo:float -> hi:float -> float array

(** [split_prices rng ~n ~split ~low ~high] gives items [0 .. split-1]
    prices drawn by [low] and the rest by [high]; used by the §7.3 workload
    where the [S]-side and [T]-side item pools follow different normals. *)
val split_prices :
  Splitmix.t -> n:int -> split:int -> low:(Splitmix.t -> float) -> high:(Splitmix.t -> float) -> float array

(** [banded_types rng ~prices ~s_lo ~t_hi ~n_types_per_side ~overlap] assigns
    a categorical Type to every item so that the overlap between the type
    sets of the [S]-side items (price ≥ [s_lo]) and of the [T]-side items
    (price ≤ [t_hi]) is controlled:

    - S-side types live in [[0, n)], T-side types in [[n - k, 2n - k)], where
      [n = n_types_per_side] and [k = round (overlap *. n)];
    - items qualifying for both sides (price in [[s_lo, t_hi]]) draw from the
      shared window [[n - k, n)].

    [overlap] must be in (0, 1]; the resulting S/T type-set overlap is
    exactly [k] types out of [n] per side. *)
val banded_types :
  Splitmix.t ->
  prices:float array ->
  s_lo:float ->
  t_hi:float ->
  n_types_per_side:int ->
  overlap:float ->
  float array

(** [price_attr] and [type_attr] are the standard attribute descriptors. *)
val price_attr : Attr.t

val type_attr : Attr.t

(** [item_info ~prices ?types ()] bundles the columns into an
    {!Item_info.t}. *)
val item_info : prices:float array -> ?types:float array -> unit -> Item_info.t

(** [random_taxonomy rng ~n_items ~branching ~depth] builds a complete
    [branching]-ary category tree of the given depth and assigns every item
    a uniformly random leaf category — the substrate for multi-level class
    constraints. *)
val random_taxonomy : Splitmix.t -> n_items:int -> branching:int -> depth:int -> Taxonomy.t
