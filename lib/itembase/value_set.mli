(** Finite sets of attribute values.

    Constraint semantics in the CFQ language manipulate *value sets* such as
    [S.Type] (the set of Type values of the items in [S]).  Values are either
    numeric (prices, amounts) or categorical (type identifiers); both are
    encoded as floats internally, with categorical values being exact small
    integers, so a single representation serves the whole constraint
    language. *)

type t

val empty : t
val of_list : float list -> t
val singleton : float -> t

val cardinal : t -> int
val is_empty : t -> bool
val mem : float -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val equal : t -> t -> bool

val min_value : t -> float option
val max_value : t -> float option
val sum : t -> float
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val for_all : (float -> bool) -> t -> bool

val pp : Format.formatter -> t -> unit
