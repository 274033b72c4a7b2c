(** Items of the active domain.

    An item is a small non-negative integer identifier into the item universe
    [0 .. universe_size - 1].  All attribute tables ({!Item_info}) and
    transaction databases are indexed by these identifiers. *)

type t = int

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
