open Cfq_itembase

type t =
  | True
  | Cmp of Attr.t * Cmp.t * float
  | In of Attr.t * Value_set.t
  | Not_in of Attr.t * Value_set.t
  | And of t * t

let rec eval info t item =
  match t with
  | True -> true
  | Cmp (attr, op, c) -> Cmp.eval op (Item_info.value info attr item) c
  | In (attr, vs) -> Value_set.mem (Item_info.value info attr item) vs
  | Not_in (attr, vs) -> not (Value_set.mem (Item_info.value info attr item) vs)
  | And (a, b) -> eval info a item && eval info b item

let conj sels =
  List.fold_left
    (fun acc s ->
      match (acc, s) with
      | acc, True -> acc
      | True, s -> s
      | acc, s -> And (acc, s))
    True sels
