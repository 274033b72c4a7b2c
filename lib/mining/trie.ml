open Cfq_itembase

(* mutable build-time representation *)
type bnode = {
  children : (int, bnode) Hashtbl.t;
  mutable bcand : int;
}

(* Frozen counting representation: a flat struct-of-arrays trie.  Nodes are
   ints; node [i]'s outgoing edges live in the slot range [lo.(i), hi.(i))
   of the shared edge arrays.  High-fanout nodes are dense jump tables over
   their key span ([base.(i) >= 0]: slot [lo.(i) + k - base.(i)] holds the
   child reached on key [k], [-1] for a hole); the rest are sorted
   key/child pairs searched binarily.  Nodes are laid out in BFS order, so
   the children of one node are contiguous and counting walks mostly move
   forward through the arrays — no pointer chasing, no allocation, and the
   whole structure is immutable after build, safely shared across
   domains. *)
type t = {
  cand : int array;  (* candidate index closed at this node, -1 if none *)
  base : int array;  (* dense nodes: first key of the span; sparse: -1 *)
  lo : int array;
  hi : int array;
  edge_key : int array;  (* sparse slots: sorted keys; dense slots: unused *)
  edge_child : int array;  (* child node id, -1 = dense hole *)
  n_cands : int;
}

let new_bnode () = { children = Hashtbl.create 4; bcand = -1 }

(* growable int array for the single-pass BFS flattening *)
module Vec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * Array.length v.a) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.a 0 v.len
end

let flatten root n_cands =
  let cand = Vec.create ()
  and base = Vec.create ()
  and lo = Vec.create ()
  and hi = Vec.create ()
  and edge_key = Vec.create ()
  and edge_child = Vec.create () in
  let q = Queue.create () in
  Queue.add root q;
  let next_id = ref 1 in
  (* nodes are processed in id order; a child's id is assigned the moment
     it is enqueued, so edges can point forward before the child's own row
     is written *)
  while not (Queue.is_empty q) do
    let b = Queue.pop q in
    let pairs =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) b.children []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let fanout = List.length pairs in
    let first = edge_child.Vec.len in
    Vec.push cand b.bcand;
    Vec.push lo first;
    (match pairs with
    | [] -> Vec.push base (-1)
    | (k0, _) :: _ ->
        let kn = fst (List.nth pairs (fanout - 1)) in
        let span = kn - k0 + 1 in
        if fanout >= 8 && span <= 16 * fanout then begin
          Vec.push base k0;
          let slot_child = Array.make span (-1) in
          List.iter
            (fun (k, child) ->
              let id = !next_id in
              incr next_id;
              Queue.add child q;
              slot_child.(k - k0) <- id)
            pairs;
          Array.iter
            (fun id ->
              Vec.push edge_key 0;
              Vec.push edge_child id)
            slot_child
        end
        else begin
          Vec.push base (-1);
          List.iter
            (fun (k, child) ->
              let id = !next_id in
              incr next_id;
              Queue.add child q;
              Vec.push edge_key k;
              Vec.push edge_child id)
            pairs
        end);
    Vec.push hi edge_child.Vec.len
  done;
  {
    cand = Vec.to_array cand;
    base = Vec.to_array base;
    lo = Vec.to_array lo;
    hi = Vec.to_array hi;
    edge_key = Vec.to_array edge_key;
    edge_child = Vec.to_array edge_child;
    n_cands;
  }

let build cands =
  let root = new_bnode () in
  Array.iteri
    (fun idx set ->
      let node = ref root in
      Itemset.iter
        (fun item ->
          let next =
            match Hashtbl.find_opt !node.children item with
            | Some n -> n
            | None ->
                let n = new_bnode () in
                Hashtbl.replace !node.children item n;
                n
          in
          node := next)
        set;
      !node.bcand <- idx)
    cands;
  flatten root (Array.length cands)

let n_candidates t = t.n_cands

(* A top-level walk, so counting a transaction allocates no closure.
   [items] ascend, so a node stops scanning at the first item past its
   keys: a dense node at the end of its key span, a sparse node past its
   last key. *)
let rec walk t counts items n id pos =
  let c = Array.unsafe_get t.cand id in
  if c >= 0 then counts.(c) <- counts.(c) + 1;
  let l = Array.unsafe_get t.lo id and h = Array.unsafe_get t.hi id in
  if h > l then begin
    let b = Array.unsafe_get t.base id in
    if b >= 0 then begin
      (* dense: direct slot lookup over the key span [b, b + h - l) *)
      let stop = b + h - l in
      let j = ref pos in
      while !j < n && Array.unsafe_get items !j < stop do
        let item = Array.unsafe_get items !j in
        if item >= b then begin
          let child = Array.unsafe_get t.edge_child (l + item - b) in
          if child >= 0 then walk t counts items n child (!j + 1)
        end;
        incr j
      done
    end
    else begin
      (* sparse: binary search the sorted key slots *)
      let last = Array.unsafe_get t.edge_key (h - 1) in
      let j = ref pos in
      while !j < n && Array.unsafe_get items !j <= last do
        let item = Array.unsafe_get items !j in
        let a = ref l and z = ref (h - 1) in
        let found = ref (-1) in
        while !found < 0 && !a <= !z do
          let mid = (!a + !z) / 2 in
          let k = Array.unsafe_get t.edge_key mid in
          if k = item then found := mid
          else if k < item then a := mid + 1
          else z := mid - 1
        done;
        if !found >= 0 then walk t counts items n (Array.unsafe_get t.edge_child !found) (!j + 1);
        incr j
      done
    end
  end

let count_row t counts items off len =
  if off < 0 || len < 0 || off + len > Array.length items then
    invalid_arg "Trie.count_row";
  walk t counts items (off + len) 0 off
