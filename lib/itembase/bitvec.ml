type t = {
  universe_size : int;
  words : int array;  (* 62 usable bits per word keeps everything immediate *)
}

let bits_per_word = 62

let create ~universe_size =
  if universe_size < 0 then invalid_arg "Bitvec.create";
  { universe_size; words = Array.make ((universe_size + bits_per_word - 1) / bits_per_word) 0 }

let check t i =
  if i < 0 || i >= t.universe_size then invalid_arg "Bitvec: item out of range"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(* SWAR popcount.  The masks are built by shifting 32-bit halves so every
   literal fits OCaml's 63-bit immediates; the final byte-sum multiply only
   needs the top byte, and with <= 62 set bits it never overflows into the
   missing 64th bit. *)
let m1 = 0x55555555 lor (0x55555555 lsl 32)
let m2 = 0x33333333 lor (0x33333333 lsl 32)
let m4 = 0x0f0f0f0f lor (0x0f0f0f0f lsl 32)
let h01 = 0x01010101 lor (0x01010101 lsl 32)

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_universe a b =
  if a.universe_size <> b.universe_size then invalid_arg "Bitvec: universe mismatch"

let map2 f a b =
  same_universe a b;
  { universe_size = a.universe_size; words = Array.map2 f a.words b.words }

let union = map2 ( lor )
let inter = map2 ( land )
let diff = map2 (fun x y -> x land lnot y)

let subset a b =
  same_universe a b;
  let ok = ref true in
  Array.iteri (fun i w -> if w land lnot b.words.(i) <> 0 then ok := false) a.words;
  !ok

let disjoint a b =
  same_universe a b;
  let ok = ref true in
  Array.iteri (fun i w -> if w land b.words.(i) <> 0 then ok := false) a.words;
  !ok

let equal a b =
  same_universe a b;
  a.words = b.words

let inter_cardinal a b =
  same_universe a b;
  let acc = ref 0 in
  Array.iteri (fun i w -> acc := !acc + popcount (w land b.words.(i))) a.words;
  !acc

let copy t = { t with words = Array.copy t.words }

let blit ~src ~dst =
  same_universe src dst;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let inter_inplace dst src =
  same_universe dst src;
  let dw = dst.words and sw = src.words in
  for i = 0 to Array.length dw - 1 do
    Array.unsafe_set dw i (Array.unsafe_get dw i land Array.unsafe_get sw i)
  done

let iter f t =
  for i = 0 to t.universe_size - 1 do
    let w = i / bits_per_word and b = i mod bits_per_word in
    if t.words.(w) land (1 lsl b) <> 0 then f i
  done

let of_itemset ~universe_size s =
  let t = create ~universe_size in
  Itemset.iter (fun i -> add t i) s;
  t

let to_itemset t =
  let out = ref [] in
  for i = t.universe_size - 1 downto 0 do
    if mem t i then out := i :: !out
  done;
  Itemset.of_list !out
