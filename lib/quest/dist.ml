let uniform rng ~lo ~hi = lo +. (Splitmix.float rng *. (hi -. lo))

let std_normal rng =
  (* Box–Muller; guard against log 0 *)
  let u1 = Float.max 1e-300 (Splitmix.float rng) in
  let u2 = Splitmix.float rng in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let normal rng ~mean ~stddev = mean +. (stddev *. std_normal rng)

let normal_clamped rng ~mean ~stddev ~lo ~hi =
  Float.min hi (Float.max lo (normal rng ~mean ~stddev))

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson";
  let l = exp (-.mean) in
  let rec loop k p =
    let p = p *. Splitmix.float rng in
    if p <= l then k else loop (k + 1) p
  in
  loop 0 1.

let exponential rng ~mean =
  let u = Float.max 1e-300 (Splitmix.float rng) in
  -.mean *. log u

let pick_weighted rng cumulative =
  let n = Array.length cumulative in
  if n = 0 then invalid_arg "Dist.pick_weighted";
  let total = cumulative.(n - 1) in
  let x = Splitmix.float rng *. total in
  (* binary search for first index with cumulative.(i) > x *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumulative.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

let sample_without_replacement rng ~n ~k =
  if k > n || k < 0 then invalid_arg "Dist.sample_without_replacement";
  (* Floyd's algorithm *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let t = Splitmix.int rng (j + 1) in
    if Hashtbl.mem chosen t then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen t ()
  done;
  let out = Array.make k 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if Hashtbl.mem chosen i then begin
      out.(!w) <- i;
      incr w
    end
  done;
  out

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
