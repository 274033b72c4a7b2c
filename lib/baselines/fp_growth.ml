open Cfq_itembase
open Cfq_txdb
open Cfq_mining

type node = {
  item : Item.t;
  mutable count : int;
  parent : node option;
  children : (Item.t, node) Hashtbl.t;
}

type tree = {
  root : node;
  headers : (Item.t, node list ref) Hashtbl.t;
  (* items present, ordered by descending conditional frequency *)
  order : Item.t array;
}

let new_node ?parent item = { item; count = 0; parent; children = Hashtbl.create 4 }

(* weighted transactions: items must already be filtered to the frequent
   ones and sorted in tree order *)
let build_tree ~freqs ~minsup paths =
  let frequent_items =
    Hashtbl.fold (fun i n acc -> if n >= minsup then (i, n) :: acc else acc) freqs []
  in
  let order =
    frequent_items
    |> List.sort (fun (i1, n1) (i2, n2) ->
           match Int.compare n2 n1 with 0 -> Int.compare i1 i2 | c -> c)
    |> List.map fst |> Array.of_list
  in
  let rank = Hashtbl.create 64 in
  Array.iteri (fun r i -> Hashtbl.replace rank i r) order;
  let root = new_node (-1) in
  let headers = Hashtbl.create 64 in
  let insert items weight =
    let sorted =
      items
      |> List.filter_map (fun i ->
             match Hashtbl.find_opt rank i with Some r -> Some (r, i) | None -> None)
      |> List.sort compare |> List.map snd
    in
    let node = ref root in
    List.iter
      (fun i ->
        let next =
          match Hashtbl.find_opt !node.children i with
          | Some n -> n
          | None ->
              let n = new_node ~parent:!node i in
              Hashtbl.replace !node.children i n;
              let chain =
                match Hashtbl.find_opt headers i with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.replace headers i c;
                    c
              in
              chain := n :: !chain;
              n
        in
        next.count <- next.count + weight;
        node := next)
      sorted
  in
  List.iter (fun (items, weight) -> insert items weight) paths;
  { root; headers; order }

(* prefix path from a node (exclusive) up to the root *)
let prefix_path node =
  let rec up acc n =
    match n.parent with
    | Some p when p.item >= 0 -> up (p.item :: acc) p
    | Some _ | None -> acc
  in
  up [] node

let mine db io ~minsup ~universe_size =
  let freqs = Hashtbl.create 256 in
  let global = Tx_db.item_frequencies db io ~universe_size in
  Array.iteri (fun i n -> if n > 0 then Hashtbl.replace freqs i n) global;
  let paths = ref [] in
  Tx_db.iter_scan db io (fun tx ->
      paths := (Itemset.to_list tx.Transaction.items, 1) :: !paths);
  let tree = build_tree ~freqs ~minsup !paths in
  let entries = ref [] in
  let emit set support = entries := { Frequent.set; support } :: !entries in
  let rec grow tree base =
    (* least-frequent first: the classic bottom-up header traversal *)
    for r = Array.length tree.order - 1 downto 0 do
      let item = tree.order.(r) in
      match Hashtbl.find_opt tree.headers item with
      | None -> ()
      | Some chain ->
          let support = List.fold_left (fun acc n -> acc + n.count) 0 !chain in
          if support >= minsup then begin
            let base' = Itemset.add item base in
            emit base' support;
            (* conditional pattern base, with per-path conditional counts *)
            let cond_freqs = Hashtbl.create 16 in
            let cond_paths =
              List.map
                (fun n ->
                  let path = prefix_path n in
                  List.iter
                    (fun i ->
                      Hashtbl.replace cond_freqs i
                        (n.count + Option.value ~default:0 (Hashtbl.find_opt cond_freqs i)))
                    path;
                  (path, n.count))
                !chain
            in
            if Hashtbl.length cond_freqs > 0 then begin
              let cond_tree = build_tree ~freqs:cond_freqs ~minsup cond_paths in
              grow cond_tree base'
            end
          end
    done
  in
  grow tree Itemset.empty;
  Frequent.of_entries !entries
