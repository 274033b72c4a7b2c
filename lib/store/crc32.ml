(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.  Table
   0 is the classic bytewise table; table k advances a byte's contribution
   by k further zero bytes, so eight bytes fold in with eight lookups. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let sub b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Crc32.sub";
  let t = Lazy.force tables in
  let tbl k n = Array.unsafe_get t ((k lsl 8) lor n) in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = u32 b !i lxor !c and hi = u32 b (!i + 4) in
    c :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xFF)
      lxor tbl 2 ((hi lsr 8) land 0xFF)
      lxor tbl 1 ((hi lsr 16) land 0xFF)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := tbl 0 ((!c lxor Char.code (Bytes.get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let bytes b = sub b 0 (Bytes.length b)
