(** The auxiliary item relation [itemInfo(Item, A1, A2, ...)].

    Stores one value per (attribute, item) pair.  Numeric attributes hold
    arbitrary floats; categorical attributes hold values that are compared
    for equality only (encoded as floats, typically small integers).  The
    identity pseudo-attribute {!Attr.self} is always available and maps each
    item to its own identifier. *)

type t

(** [create ~universe_size] makes an empty table for items
    [0 .. universe_size - 1]. *)
val create : universe_size:int -> t

(** [id t] is a process-wide token for the physical identity of [t],
    stamped by {!create}: distinct tables get distinct ids, even when
    their columns are equal. *)
val id : t -> int

val universe_size : t -> int

(** [add_column t attr values] registers attribute [attr] with per-item
    [values]; [Array.length values] must equal [universe_size t].
    Raises [Invalid_argument] on size mismatch or duplicate name. *)
val add_column : t -> Attr.t -> float array -> unit

(** [attrs t] lists the registered attributes (excluding {!Attr.self}). *)
val attrs : t -> Attr.t list

(** [find_attr t name] looks an attribute up by name; also resolves
    ["Item"] to {!Attr.self}. *)
val find_attr : t -> string -> Attr.t option

(** [value t attr item] is the attribute value of [item].
    Raises [Not_found] if [attr] was never registered. *)
val value : t -> Attr.t -> Item.t -> float

(** [column t attr] is [value t attr] with the attribute looked up once,
    for loops over many items. *)
val column : t -> Attr.t -> Item.t -> float

(** [project t attr s] is the value set [s.attr = { attr(e) | e ∈ s }]. *)
val project : t -> Attr.t -> Itemset.t -> Value_set.t

(** {1 Aggregates over itemsets}

    All of these view the itemset as a multiset of attribute values — i.e.
    [sum]/[avg] count each item's value once even when two items share a
    value, matching SQL aggregate semantics over the join of [S] with
    [itemInfo]. *)

val min_of : t -> Attr.t -> Itemset.t -> float option
val max_of : t -> Attr.t -> Itemset.t -> float option
val sum_of : t -> Attr.t -> Itemset.t -> float
val avg_of : t -> Attr.t -> Itemset.t -> float option

(** [count_distinct t attr s] is [|s.attr|], the number of distinct
    attribute values, as used by constraints like [count(S.Type) = 1]. *)
val count_distinct : t -> Attr.t -> Itemset.t -> int
