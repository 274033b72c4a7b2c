open Cfq_itembase
open Cfq_constr
open Cfq_mining

type join_method =
  | Nested_loop
  | Sort_join
  | Hash_join

type stats = {
  n_pairs : int;
  n_paired_s : int;
  n_paired_t : int;
  checks : int;
  join : join_method;
}

let join_method_name = function
  | Nested_loop -> "nested-loop"
  | Sort_join -> "sort-join"
  | Hash_join -> "hash-join"

let pairwise f i ts lo hi =
  for r = lo to hi - 1 do
    f i ts.(r)
  done

(* pick the constraint that can drive an index-based join; return it and the
   residual conjunction *)
let rec pick_driver acc = function
  | [] -> (None, List.rev acc)
  | (Two_var.Agg2 (_, _, _, _, _) as c) :: rest -> (Some (`Agg c), List.rev_append acc rest)
  | (Two_var.Set2 (_, Two_var.Set_eq, _) as c) :: rest ->
      (Some (`Eq c), List.rev_append acc rest)
  | c :: rest -> pick_driver (c :: acc) rest

(* Every join walks the T indices in one fixed order [perm] (a permutation
   of the T side) and hands each S-set contiguous ranges of it.  With no
   residual constraint a range is emitted as is: the counts move once per
   run, and the T-sets it covers are marked at the end through [cover]
   (+1 at a run's start, -1 past its end).  A residual conjunction filters
   the range into [buf] first. *)
type emitter = {
  s_info : Item_info.t;
  t_info : Item_info.t;
  valid_s : Frequent.entry array;
  valid_t : Frequent.entry array;
  residual : Two_var.t list;
  perm : int array;
  mutable n_pairs : int;
  mutable checks : int;
  paired_s : bool array;
  paired_t : bool array;
  cover : int array;
  buf : int array;
  on_run : int -> int array -> int -> int -> unit;
}

let rec holds em s t = function
  | [] -> true
  | c :: rest ->
      em.checks <- em.checks + 1;
      Two_var.eval ~s_info:em.s_info ~t_info:em.t_info c s t && holds em s t rest

(* the pairs (i, perm.(r)) for lo <= r < hi that satisfy the residual *)
let run em i lo hi =
  if lo < hi then
    match em.residual with
    | [] ->
        em.n_pairs <- em.n_pairs + hi - lo;
        em.paired_s.(i) <- true;
        em.cover.(lo) <- em.cover.(lo) + 1;
        em.cover.(hi) <- em.cover.(hi) - 1;
        em.on_run i em.perm lo hi
    | residual ->
        let s = em.valid_s.(i).Frequent.set in
        let k = ref 0 in
        for r = lo to hi - 1 do
          let j = em.perm.(r) in
          if holds em s em.valid_t.(j).Frequent.set residual then begin
            em.buf.(!k) <- j;
            em.paired_t.(j) <- true;
            incr k
          end
        done;
        if !k > 0 then begin
          em.n_pairs <- em.n_pairs + !k;
          em.paired_s.(i) <- true;
          em.on_run i em.buf 0 !k
        end

let finish em join =
  let covered = ref 0 in
  Array.iteri
    (fun r j ->
      covered := !covered + em.cover.(r);
      if !covered > 0 then em.paired_t.(j) <- true)
    em.perm;
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in
  {
    n_pairs = em.n_pairs;
    n_paired_s = count em.paired_s;
    n_paired_t = count em.paired_t;
    checks = em.checks;
    join;
  }

(* first position in [lo, hi) of the ascending [keys] whose key is >= x
   (> x with [strict]); x and the keys in range are not NaN *)
let lower_bound (keys : float array) lo hi ~strict x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let k = Array.unsafe_get keys mid in
    if (if strict then k <= x else k < x) then lo := mid + 1 else hi := mid
  done;
  !lo

(* an aggregate, NaN when undefined: under [Two_var.eval] an undefined
   aggregate satisfies only [Ne], exactly as a NaN one does *)
let agg_key agg info attr (e : Frequent.entry) =
  match Agg.apply agg info attr e.Frequent.set with Some v -> v | None -> Float.nan

(* T in [Float.compare] order of its keys, ties by index: the [n_nan] NaN
   keys first, which pair only under [Ne] and then with every S-set, then
   the ordered keys ascending.  Each S-set takes one or two runs of it. *)
let sort_join em ~keys ~n_nan ~key_s op =
  let n = Array.length keys in
  let bound ~strict x = lower_bound keys n_nan n ~strict x in
  for i = 0 to Array.length em.valid_s - 1 do
    let x = key_s i in
    if Float.is_nan x then (if op = Cmp.Ne then run em i 0 n)
    else
      match op with
      | Cmp.Le -> run em i (bound ~strict:false x) n
      | Cmp.Lt -> run em i (bound ~strict:true x) n
      | Cmp.Ge -> run em i n_nan (bound ~strict:true x)
      | Cmp.Gt -> run em i n_nan (bound ~strict:false x)
      | Cmp.Eq -> run em i (bound ~strict:false x) (bound ~strict:true x)
      | Cmp.Ne ->
          run em i 0 (bound ~strict:false x);
          run em i (bound ~strict:true x) n
  done

(* ------------------------------------------------------------------ *)
(* hash join *)

(* Each set's projected values, sorted and distinct under [Float.compare]
   (the order [Value_set] uses), with every NaN as one NaN and -0 as +0,
   laid end to end: set k's key is [vals.(off.(k)) .. vals.(off.(k+1) - 1)].
   Two keys are equal exactly when the sets' [Value_set]s are. *)
type keys = {
  vals : float array;
  off : int array;
  hash : int array;
}

let canon v = if Float.is_nan v then Float.nan else if v = 0. then 0. else v

let keys_of info attr (sets : Frequent.entry array) =
  let value = Item_info.column info attr in
  let n = Array.length sets in
  let total = Array.fold_left (fun acc e -> acc + Itemset.cardinal e.Frequent.set) 0 sets in
  let vals = Array.make total 0. and off = Array.make (n + 1) 0 and hash = Array.make n 0 in
  let pos = ref 0 in
  for k = 0 to n - 1 do
    let start = !pos and items = Itemset.unsafe_to_array sets.(k).Frequent.set in
    for x = 0 to Array.length items - 1 do
      (* insertion into the sorted distinct prefix *)
      let v = canon (value items.(x)) in
      let p = ref !pos in
      while !p > start && Float.compare vals.(!p - 1) v > 0 do
        decr p
      done;
      if not (!p > start && Float.compare vals.(!p - 1) v = 0) then begin
        Array.blit vals !p vals (!p + 1) (!pos - !p);
        vals.(!p) <- v;
        incr pos
      end
    done;
    off.(k + 1) <- !pos;
    let h = ref (!pos - start) in
    for r = start to !pos - 1 do
      h := (!h * 0x2f0b3d4d) + Int64.to_int (Int64.bits_of_float vals.(r))
    done;
    hash.(k) <- !h lxor (!h lsr 29)
  done;
  { vals; off; hash }

(* canonical values are equal exactly when their bits are *)
let equal_keys ka a kb b =
  ka.hash.(a) = kb.hash.(b)
  &&
  let la = ka.off.(a + 1) - ka.off.(a) in
  la = kb.off.(b + 1) - kb.off.(b)
  &&
  let rec go r =
    r = la
    || Int64.equal
         (Int64.bits_of_float ka.vals.(ka.off.(a) + r))
         (Int64.bits_of_float kb.vals.(kb.off.(b) + r))
       && go (r + 1)
  in
  go 0

(* The T side grouped by key: an open-addressing table maps each distinct
   key to its group, groups are numbered by first appearance, and [order]
   lists T group by group, ascending within a group, group [g] at
   [start.(g) .. start.(g+1) - 1]. *)
type groups = {
  kt : keys;
  slots : int array;  (* group, or -1 *)
  first : int array;  (* a group's first T-set *)
  start : int array;
  order : int array;
}

(* the slot of key [i] of [ks]: its group's, or the empty one ending its
   probe sequence *)
let rec find_slot kt slots first ks i s =
  let c = slots.(s) in
  if c < 0 || equal_keys kt first.(c) ks i then s
  else find_slot kt slots first ks i ((s + 1) land (Array.length slots - 1))

let groups_of kt =
  let nt = Array.length kt.hash in
  let size = ref 2 in
  while !size < 2 * nt do
    size := 2 * !size
  done;
  let slots = Array.make !size (-1) and first = Array.make nt 0 in
  let group = Array.make nt 0 and count = Array.make (nt + 1) 0 and n_groups = ref 0 in
  for j = 0 to nt - 1 do
    let s = find_slot kt slots first kt j (kt.hash.(j) land (!size - 1)) in
    if slots.(s) < 0 then begin
      slots.(s) <- !n_groups;
      first.(!n_groups) <- j;
      incr n_groups
    end;
    group.(j) <- slots.(s);
    count.(group.(j) + 1) <- count.(group.(j) + 1) + 1
  done;
  for c = 1 to nt do
    count.(c) <- count.(c) + count.(c - 1)
  done;
  let start = Array.sub count 0 (!n_groups + 1) and order = Array.make nt 0 in
  Array.iteri
    (fun j c ->
      order.(count.(c)) <- j;
      count.(c) <- count.(c) + 1)
    group;
  { kt; slots; first; start; order }

(* each S-set's group is one run *)
let hash_join em g ~ks =
  let mask = Array.length g.slots - 1 in
  for i = 0 to Array.length em.valid_s - 1 do
    let c = g.slots.(find_slot g.kt g.slots g.first ks i (ks.hash.(i) land mask)) in
    if c >= 0 then run em i g.start.(c) g.start.(c + 1)
  done

let form ~s_info ~t_info ~valid_s ~valid_t ~two_var ?(on_run = fun _ _ _ _ -> ()) () =
  let nt = Array.length valid_t in
  let em perm residual =
    {
      s_info;
      t_info;
      valid_s;
      valid_t;
      residual;
      perm;
      n_pairs = 0;
      checks = 0;
      paired_s = Array.make (Array.length valid_s) false;
      paired_t = Array.make nt false;
      cover = Array.make (nt + 1) 0;
      buf = (if residual = [] then [||] else Array.make nt 0);
      on_run;
    }
  in
  match pick_driver [] two_var with
  | Some (`Agg (Two_var.Agg2 (agg1, a, op, agg2, b))), residual ->
      let key_t = Array.map (agg_key agg2 t_info b) valid_t in
      let order = Array.init nt Fun.id in
      Array.stable_sort (fun x y -> Float.compare key_t.(x) key_t.(y)) order;
      let keys = Array.map (Array.get key_t) order in
      let n_nan = Array.fold_left (fun c k -> if Float.is_nan k then c + 1 else c) 0 keys in
      let em = em order residual in
      sort_join em ~keys ~n_nan ~key_s:(fun i -> agg_key agg1 s_info a valid_s.(i)) op;
      finish em Sort_join
  | Some (`Eq (Two_var.Set2 (a, Two_var.Set_eq, b))), residual ->
      let g = groups_of (keys_of t_info b valid_t) in
      let em = em g.order residual in
      hash_join em g ~ks:(keys_of s_info a valid_s);
      finish em Hash_join
  | Some _, _ | None, _ ->
      let em = em (Array.init nt Fun.id) two_var in
      for i = 0 to Array.length valid_s - 1 do
        run em i 0 nt
      done;
      finish em Nested_loop
