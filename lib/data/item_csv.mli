(** CSV-backed [itemInfo] tables.

    Format: a header line naming the columns, first column the item id,
    remaining columns attributes.  A column is categorical if its header
    ends in [":cat"], numeric otherwise:

    {v
    item,Price,Type:cat
    0,12.5,3
    1,99,1
    v}

    Missing items default to value 0 for every attribute. *)

open Cfq_itembase

exception Bad_format of string

(** [read path ~universe_size] loads the table. *)
val read : string -> universe_size:int -> Item_info.t

val read_string : ?name:string -> string -> universe_size:int -> Item_info.t

(** [max_item path] is the largest item id a row of the table names
    ([-1] for none), so a reader can size the universe to cover it. *)
val max_item : string -> int

(** [write path info] dumps all registered attributes. *)
val write : string -> Item_info.t -> unit
