type t = Item.t array

let empty = [||]
let singleton i = [| i |]

let check_sorted a =
  let n = Array.length a in
  let rec loop i =
    if i >= n then true
    else if a.(i - 1) < a.(i) then loop (i + 1)
    else false
  in
  loop 1

let of_sorted_array a =
  if not (check_sorted a) then
    invalid_arg "Itemset.of_sorted_array: not strictly increasing";
  a

let unsafe_of_sorted_array a = a

let of_array a =
  let b = Array.copy a in
  Array.sort Item.compare b;
  let n = Array.length b in
  if n = 0 then b
  else begin
    (* dedupe in place, then trim *)
    let w = ref 1 in
    for r = 1 to n - 1 do
      if b.(r) <> b.(!w - 1) then begin
        b.(!w) <- b.(r);
        incr w
      end
    done;
    if !w = n then b else Array.sub b 0 !w
  end

let of_list l = of_array (Array.of_list l)
let to_list = Array.to_list
let to_array = Array.copy
let unsafe_to_array s = s

let cardinal = Array.length
let is_empty s = Array.length s = 0

let mem i s =
  (* binary search *)
  let lo = ref 0 and hi = ref (Array.length s - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = s.(mid) in
    if v = i then found := true
    else if v < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let get s i = s.(i)
let min_item s = if is_empty s then None else Some s.(0)
let max_item s = if is_empty s then None else Some s.(Array.length s - 1)

let iter = Array.iter
let fold f acc s = Array.fold_left f acc s
let for_all = Array.for_all
let exists = Array.exists
let filter p s = Array.of_seq (Seq.filter p (Array.to_seq s))

let count p s =
  Array.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 s

let add i s =
  if mem i s then s
  else begin
    let n = Array.length s in
    let out = Array.make (n + 1) i in
    let rec place r w =
      if r >= n then ()
      else if s.(r) < i then begin
        out.(w) <- s.(r);
        place (r + 1) (w + 1)
      end
      else begin
        (* out.(w) already holds [i]; shift the rest one right *)
        Array.blit s r out (w + 1) (n - r)
      end
    in
    place 0 0;
    out
  end

let remove i s =
  if not (mem i s) then s
  else filter (fun j -> j <> i) s

let union a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec loop ia ib w =
    if ia >= na then begin
      Array.blit b ib out w (nb - ib);
      w + (nb - ib)
    end
    else if ib >= nb then begin
      Array.blit a ia out w (na - ia);
      w + (na - ia)
    end
    else
      let x = a.(ia) and y = b.(ib) in
      if x < y then begin
        out.(w) <- x;
        loop (ia + 1) ib (w + 1)
      end
      else if y < x then begin
        out.(w) <- y;
        loop ia (ib + 1) (w + 1)
      end
      else begin
        out.(w) <- x;
        loop (ia + 1) (ib + 1) (w + 1)
      end
  in
  let n = loop 0 0 0 in
  if n = na + nb then out else Array.sub out 0 n

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let rec loop ia ib w =
    if ia >= na || ib >= nb then w
    else
      let x = a.(ia) and y = b.(ib) in
      if x < y then loop (ia + 1) ib w
      else if y < x then loop ia (ib + 1) w
      else begin
        out.(w) <- x;
        loop (ia + 1) (ib + 1) (w + 1)
      end
  in
  let n = loop 0 0 0 in
  if n = Array.length out then out else Array.sub out 0 n

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let rec loop ia ib w =
    if ia >= na then w
    else if ib >= nb then begin
      Array.blit a ia out w (na - ia);
      w + (na - ia)
    end
    else
      let x = a.(ia) and y = b.(ib) in
      if x < y then begin
        out.(w) <- x;
        loop (ia + 1) ib (w + 1)
      end
      else if y < x then loop ia (ib + 1) w
      else loop (ia + 1) (ib + 1) w
  in
  let n = loop 0 0 0 in
  if n = na then out else Array.sub out 0 n

let subset a b =
  let na = Array.length a and nb = Array.length b in
  if na > nb then false
  else
    let rec loop ia ib =
      if ia >= na then true
      else if ib >= nb then false
      else
        let x = a.(ia) and y = b.(ib) in
        if x = y then loop (ia + 1) (ib + 1)
        else if x > y then loop ia (ib + 1)
        else false
    in
    loop 0 0

let subset_of_array = subset

let disjoint a b =
  let na = Array.length a and nb = Array.length b in
  let rec loop ia ib =
    if ia >= na || ib >= nb then true
    else
      let x = a.(ia) and y = b.(ib) in
      if x = y then false else if x < y then loop (ia + 1) ib else loop ia (ib + 1)
  in
  loop 0 0

let equal a b =
  let na = Array.length a in
  na = Array.length b
  &&
  let rec loop i = i >= na || (a.(i) = b.(i) && loop (i + 1)) in
  loop 0

let compare a b =
  let na = Array.length a and nb = Array.length b in
  if na <> nb then Int.compare na nb
  else
    let rec loop i =
      if i >= na then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let hash s =
  (* FNV-1a style over the items *)
  let h = ref 0x811c9dc5 in
  Array.iter
    (fun i ->
      h := !h lxor i;
      h := !h * 0x01000193 land max_int)
    s;
  !h

let prefix_join a b =
  let k = Array.length a in
  if k = 0 || Array.length b <> k then None
  else
    let rec shared i = i >= k - 1 || (a.(i) = b.(i) && shared (i + 1)) in
    if shared 0 && a.(k - 1) < b.(k - 1) then begin
      let out = Array.make (k + 1) b.(k - 1) in
      Array.blit a 0 out 0 k;
      Some out
    end
    else None

let iter_subsets_k s k f =
  let n = Array.length s in
  if k = 0 then f empty
  else if k <= n then begin
    let idx = Array.init k (fun i -> i) in
    let emit () = f (Array.map (fun i -> s.(i)) idx) in
    let rec next () =
      emit ();
      (* advance the combination counter *)
      let rec bump p =
        if p < 0 then false
        else if idx.(p) < n - (k - p) then begin
          idx.(p) <- idx.(p) + 1;
          for q = p + 1 to k - 1 do
            idx.(q) <- idx.(q - 1) + 1
          done;
          true
        end
        else bump (p - 1)
      in
      if bump (k - 1) then next ()
    in
    next ()
  end

let iter_delete_one s f =
  let n = Array.length s in
  for d = 0 to n - 1 do
    let out = Array.make (n - 1) 0 in
    Array.blit s 0 out 0 d;
    Array.blit s (d + 1) out d (n - 1 - d);
    f out
  done

let powerset s f =
  let n = Array.length s in
  if n > 20 then invalid_arg "Itemset.powerset: set too large";
  for mask = 0 to (1 lsl n) - 1 do
    let size = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then incr size
    done;
    let out = Array.make !size 0 in
    let w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        out.(!w) <- s.(i);
        incr w
      end
    done;
    f out
  done

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Item.pp)
    s

let to_string s = Format.asprintf "%a" pp s

module T = struct
  type nonrec t = t

  let equal = equal
  let compare = compare
  let hash = hash
end

module Hashtbl = Hashtbl.Make (T)
module Set = Set.Make (T)
module Map = Map.Make (T)
