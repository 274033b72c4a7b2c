type t = {
  id : int;  (* process-unique, stamped at construction *)
  universe_size : int;
  columns : (string, Attr.t * float array) Hashtbl.t;
}

let next_id = Atomic.make 1

let create ~universe_size =
  { id = Atomic.fetch_and_add next_id 1; universe_size; columns = Hashtbl.create 8 }

let id t = t.id
let universe_size t = t.universe_size

let add_column t attr values =
  if Array.length values <> t.universe_size then
    invalid_arg "Item_info.add_column: column size mismatch";
  if Attr.is_self attr then invalid_arg "Item_info.add_column: reserved name";
  if Hashtbl.mem t.columns attr.Attr.name then
    invalid_arg ("Item_info.add_column: duplicate attribute " ^ attr.Attr.name);
  Hashtbl.replace t.columns attr.Attr.name (attr, values)

let attrs t =
  Hashtbl.fold (fun _ (attr, _) acc -> attr :: acc) t.columns []
  |> List.sort (fun a b -> String.compare a.Attr.name b.Attr.name)

let find_attr t name =
  if String.equal name Attr.self.Attr.name then Some Attr.self
  else
    match Hashtbl.find_opt t.columns name with
    | Some (attr, _) -> Some attr
    | None -> None

let value t attr item =
  if Attr.is_self attr then float_of_int item
  else
    match Hashtbl.find_opt t.columns attr.Attr.name with
    | Some (_, col) -> col.(item)
    | None -> raise Not_found

let column t attr =
  if Attr.is_self attr then float_of_int
  else
    match Hashtbl.find_opt t.columns attr.Attr.name with
    | Some (_, col) -> Array.get col
    | None -> fun _ -> raise Not_found

let project t attr s =
  let value = column t attr in
  Itemset.fold (fun acc e -> Value_set.union acc (Value_set.singleton (value e))) Value_set.empty s

(* a left fold of [f] over the values of a non-empty [s] *)
let fold_values f t attr s =
  let value = column t attr and a = Itemset.unsafe_to_array s in
  let acc = ref (value a.(0)) in
  for k = 1 to Array.length a - 1 do
    acc := f !acc (value a.(k))
  done;
  !acc

let min_of t attr s = if Itemset.is_empty s then None else Some (fold_values Float.min t attr s)
let max_of t attr s = if Itemset.is_empty s then None else Some (fold_values Float.max t attr s)

let sum_of t attr s =
  let value = column t attr in
  Itemset.fold (fun acc e -> acc +. value e) 0. s

let avg_of t attr s =
  let n = Itemset.cardinal s in
  if n = 0 then None else Some (sum_of t attr s /. float_of_int n)

let count_distinct t attr s = Value_set.cardinal (project t attr s)
