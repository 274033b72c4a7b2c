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

(* pick the constraint that can drive an index-based join; return it and the
   residual conjunction *)
let rec pick_driver acc = function
  | [] -> (None, List.rev acc)
  | (Two_var.Agg2 (_, _, _, _, _) as c) :: rest -> (Some (`Agg c), List.rev_append acc rest)
  | (Two_var.Set2 (_, Two_var.Set_eq, _) as c) :: rest ->
      (Some (`Eq c), List.rev_append acc rest)
  | c :: rest -> pick_driver (c :: acc) rest

type emitter = {
  mutable n_pairs : int;
  mutable checks : int;
  paired_s : bool array;
  paired_t : bool array;
  on_pair : int -> int -> unit;
}

let emit em ~s_info ~t_info ~residual valid_s valid_t i j =
  let es = valid_s.(i) and et = valid_t.(j) in
  let ok =
    List.for_all
      (fun c ->
        em.checks <- em.checks + 1;
        Two_var.eval ~s_info ~t_info c es.Frequent.set et.Frequent.set)
      residual
  in
  if ok then begin
    em.n_pairs <- em.n_pairs + 1;
    em.paired_s.(i) <- true;
    em.paired_t.(j) <- true;
    em.on_pair i j
  end

let finish em join =
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in
  {
    n_pairs = em.n_pairs;
    n_paired_s = count em.paired_s;
    n_paired_t = count em.paired_t;
    checks = em.checks;
    join;
  }

let nested_loop em ~s_info ~t_info ~two_var valid_s valid_t =
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ -> emit em ~s_info ~t_info ~residual:two_var valid_s valid_t i j)
        valid_t)
    valid_s;
  finish em Nested_loop

(* binary search: first index with key >= x (or > x with [strict]) *)
let lower_bound keys ~strict x =
  let n = Array.length keys in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k = fst keys.(mid) in
    let before = if strict then k <= x else k < x in
    if before then lo := mid + 1 else hi := mid
  done;
  !lo

let sort_join em ~s_info ~t_info ~residual valid_s valid_t agg1 a op agg2 b =
  let key_s i =
    match Agg.apply agg1 s_info a valid_s.(i).Frequent.set with
    | Some v -> v
    | None -> nan
  in
  let sorted_t =
    Array.to_seq valid_t
    |> Seq.mapi (fun j e -> (Agg.apply agg2 t_info b e.Frequent.set, j))
    |> Seq.filter_map (function Some v, j -> Some (v, j) | None, _ -> None)
    |> Array.of_seq
  in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) sorted_t;
  let n = Array.length sorted_t in
  let visit i lo hi =
    for r = lo to hi - 1 do
      emit em ~s_info ~t_info ~residual valid_s valid_t i (snd sorted_t.(r))
    done
  in
  Array.iteri
    (fun i _ ->
      let ks = key_s i in
      if Float.is_nan ks then ()
      else
        match op with
        | Cmp.Le -> visit i (lower_bound sorted_t ~strict:false ks) n
        | Cmp.Lt -> visit i (lower_bound sorted_t ~strict:true ks) n
        | Cmp.Ge -> visit i 0 (lower_bound sorted_t ~strict:true ks)
        | Cmp.Gt -> visit i 0 (lower_bound sorted_t ~strict:false ks)
        | Cmp.Eq ->
            visit i (lower_bound sorted_t ~strict:false ks)
              (lower_bound sorted_t ~strict:true ks)
        | Cmp.Ne ->
            visit i 0 (lower_bound sorted_t ~strict:false ks);
            visit i (lower_bound sorted_t ~strict:true ks) n)
    valid_s;
  finish em Sort_join

let hash_join em ~s_info ~t_info ~residual valid_s valid_t a b =
  (* the projected values' bit patterns, every NaN as one: equal exactly
     when the values' hexadecimal renderings are *)
  let canon info attr set =
    let vs = Cfq_itembase.Value_set.to_list (Cfq_itembase.Item_info.project info attr set) in
    let key = Bytes.create (8 * List.length vs) in
    List.iteri
      (fun k v ->
        Bytes.set_int64_le key (8 * k)
          (Int64.bits_of_float (if Float.is_nan v then Float.nan else v)))
      vs;
    Bytes.unsafe_to_string key
  in
  let buckets = Hashtbl.create (2 * Array.length valid_t) in
  Array.iteri
    (fun j e ->
      let key = canon t_info b e.Frequent.set in
      Hashtbl.replace buckets key (j :: Option.value ~default:[] (Hashtbl.find_opt buckets key)))
    valid_t;
  Array.iteri
    (fun i e ->
      let key = canon s_info a e.Frequent.set in
      List.iter
        (fun j -> emit em ~s_info ~t_info ~residual valid_s valid_t i j)
        (Option.value ~default:[] (Hashtbl.find_opt buckets key)))
    valid_s;
  finish em Hash_join

let form ~s_info ~t_info ~valid_s ~valid_t ~two_var ?(on_pair = fun _ _ -> ()) () =
  let em =
    {
      n_pairs = 0;
      checks = 0;
      paired_s = Array.make (Array.length valid_s) false;
      paired_t = Array.make (Array.length valid_t) false;
      on_pair;
    }
  in
  match pick_driver [] two_var with
  | Some (`Agg (Two_var.Agg2 (agg1, a, op, agg2, b))), residual ->
      sort_join em ~s_info ~t_info ~residual valid_s valid_t agg1 a op agg2 b
  | Some (`Eq (Two_var.Set2 (a, Two_var.Set_eq, b))), residual ->
      hash_join em ~s_info ~t_info ~residual valid_s valid_t a b
  | Some _, _ | None, _ -> nested_loop em ~s_info ~t_info ~two_var valid_s valid_t
