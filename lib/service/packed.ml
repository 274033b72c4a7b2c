open Cfq_itembase
open Cfq_mining

type t = {
  pk_s : Frequent.entry array;
  pk_t : Frequent.entry array;
  pk_idx : int array;
}

type weighed = {
  pk : t;
  raw_weight : int;
  packed_weight : int;
}

(* the index stream is buffered in chunks small enough to be allocated in
   the minor heap (at most 256 words), then copied once into an exact-size
   [pk_idx]; an even size keeps a pair's two indices in one chunk *)
let chunk_words = 256

type packer = {
  valid_s : Frequent.entry array;
  valid_t : Frequent.entry array;
  deg_s : int array;  (* pairs packed per set *)
  deg_t : int array;
  mutable full : int array list;  (* filled chunks, newest first *)
  mutable chunk : int array;
  mutable fill : int;
}

let packer valid_s valid_t =
  {
    valid_s;
    valid_t;
    deg_s = Array.make (Array.length valid_s) 0;
    deg_t = Array.make (Array.length valid_t) 0;
    full = [];
    chunk = Array.make chunk_words 0;
    fill = 0;
  }

let next_chunk p =
  p.full <- p.chunk :: p.full;
  p.chunk <- Array.make chunk_words 0;
  p.fill <- 0

let add_run p i ts lo hi =
  if lo < hi then begin
    if lo < 0 || hi > Array.length ts then invalid_arg "Packed.add_run";
    p.deg_s.(i) <- p.deg_s.(i) + (hi - lo);
    let deg_t = p.deg_t in
    let r = ref lo in
    while !r < hi do
      if p.fill = chunk_words then next_chunk p;
      let chunk = p.chunk and fill = p.fill in
      let n = min (hi - !r) ((chunk_words - fill) / 2) in
      for k = 0 to n - 1 do
        let j = Array.unsafe_get ts (!r + k) in
        Array.unsafe_set chunk (fill + (2 * k)) i;
        Array.unsafe_set chunk (fill + (2 * k) + 1) j;
        deg_t.(j) <- deg_t.(j) + 1
      done;
      p.fill <- fill + (2 * n);
      r := !r + n
    done
  end

let add_pair p i j =
  if p.fill = chunk_words then next_chunk p;
  p.chunk.(p.fill) <- i;
  p.chunk.(p.fill + 1) <- j;
  p.fill <- p.fill + 2;
  p.deg_s.(i) <- p.deg_s.(i) + 1;
  p.deg_t.(j) <- p.deg_t.(j) + 1

(* a raw answer charges 16 bytes and both entries per pair; a packed one
   two indices per pair and each paired entry once.  The unpaired valid
   sets it also keeps are the side collection's records. *)
let weights p =
  let raw = ref 0 and packed = ref 0 and n_pairs = ref 0 in
  let side entries deg =
    Array.iteri
      (fun k d ->
        if d > 0 then begin
          let w = Condensed.entry_weight entries.(k) in
          raw := !raw + (d * w);
          packed := !packed + w
        end)
      deg
  in
  side p.valid_s p.deg_s;
  side p.valid_t p.deg_t;
  Array.iter (fun d -> n_pairs := !n_pairs + d) p.deg_s;
  (256 + (16 * !n_pairs) + !raw, 256 + (16 * !n_pairs) + !packed)

(* a plain loop, not [Array.blit]: into a major-heap array, a blit of
   values pays the write barrier on every word *)
let finish p =
  let n_full = List.length p.full in
  let idx = Array.make ((n_full * chunk_words) + p.fill) 0 in
  let copy (c : int array) at len =
    for k = 0 to len - 1 do
      Array.unsafe_set idx (at + k) (Array.unsafe_get c k)
    done
  in
  List.iteri (fun k c -> copy c ((n_full - 1 - k) * chunk_words) chunk_words) p.full;
  copy p.chunk (n_full * chunk_words) p.fill;
  let raw_weight, packed_weight = weights p in
  { pk = { pk_s = p.valid_s; pk_t = p.valid_t; pk_idx = idx }; raw_weight; packed_weight }

let n_pairs pk = Array.length pk.pk_idx / 2

let join ~s_info ~t_info ~valid_s ~valid_t ~two_var =
  let p = packer valid_s valid_t in
  let stats =
    Cfq_core.Pairs.form ~s_info ~t_info ~valid_s ~valid_t ~two_var ~on_run:(add_run p) ()
  in
  (stats, finish p)

(* for every old set, its index in [valid], or -1.  Filtered collections
   list their sets in [Itemset.compare] order, so one merge pass suffices.
   A side that [Condensed] kept raw lists each level in the order it was
   mined, which need not be [Itemset.compare] order; such sides are matched
   by hashing. *)
let positions valid (old : Frequent.entry array) =
  let ascending (a : Frequent.entry array) =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if Itemset.compare a.(i - 1).Frequent.set a.(i).Frequent.set >= 0 then ok := false
    done;
    !ok
  in
  if ascending valid && ascending old then begin
    let n = Array.length valid and i = ref 0 in
    Array.map
      (fun (e : Frequent.entry) ->
        while !i < n && Itemset.compare valid.(!i).Frequent.set e.Frequent.set < 0 do
          incr i
        done;
        if !i < n && Itemset.equal valid.(!i).Frequent.set e.Frequent.set then !i else -1)
      old
  end
  else begin
    let at = Itemset.Hashtbl.create (Array.length valid) in
    Array.iteri (fun i (e : Frequent.entry) -> Itemset.Hashtbl.replace at e.Frequent.set i) valid;
    Array.map
      (fun (e : Frequent.entry) ->
        Option.value ~default:(-1) (Itemset.Hashtbl.find_opt at e.Frequent.set))
      old
  end

(* the indices of [valid] whose set the old answer held ([kept]) and the
   rest ([newcomers]) *)
let split_sides valid pos =
  let old = Array.make (Array.length valid) false in
  Array.iter (fun i -> if i >= 0 then old.(i) <- true) pos;
  let pick keep =
    Array.of_list
      (List.filter (fun i -> old.(i) = keep) (List.init (Array.length valid) Fun.id))
  in
  (pick true, pick false)

(* (S_new x valid_t) u (S_kept x T_new), where S_kept are the sets of
   [valid_s] among the old answer's S-sets and S_new the rest, and T
   likewise: the two joins are disjoint, and neither meets an old pair *)
let delta_join ~s_info ~t_info ~two_var old ~valid_s ~valid_t =
  let pos_s = positions valid_s old.pk_s and pos_t = positions valid_t old.pk_t in
  let p = packer valid_s valid_t in
  for k = 0 to n_pairs old - 1 do
    let i = pos_s.(old.pk_idx.(2 * k)) and j = pos_t.(old.pk_idx.((2 * k) + 1)) in
    if i >= 0 && j >= 0 then add_pair p i j
  done;
  let s_kept, s_new = split_sides valid_s pos_s in
  let _, t_new = split_sides valid_t pos_t in
  let join s_idx t_idx =
    if Array.length s_idx > 0 && Array.length t_idx > 0 then
      ignore
        (Cfq_core.Pairs.form ~s_info ~t_info
           ~valid_s:(Array.map (Array.get valid_s) s_idx)
           ~valid_t:(Array.map (Array.get valid_t) t_idx)
           ~two_var
           ~on_run:(Cfq_core.Pairs.pairwise (fun a b -> add_pair p s_idx.(a) t_idx.(b)))
           ()
          : Cfq_core.Pairs.stats)
  in
  join s_new (Array.init (Array.length valid_t) Fun.id);
  join s_kept t_new;
  finish p

let pairs pk =
  let pairs = ref [] in
  for k = n_pairs pk - 1 downto 0 do
    pairs := (pk.pk_s.(pk.pk_idx.(2 * k)), pk.pk_t.(pk.pk_idx.((2 * k) + 1))) :: !pairs
  done;
  !pairs
