let magic = "CFQMAN01"
let version = 2

type partition = Tid_range

let partition_name Tid_range = "tid-range"

type health = Healthy | Stale | Quarantined

let health_name = function
  | Healthy -> "healthy"
  | Stale -> "stale"
  | Quarantined -> "quarantined"

let health_code = function Healthy -> 0 | Stale -> 1 | Quarantined -> 2

let health_of_code = function
  | 0 -> Some Healthy
  | 1 -> Some Stale
  | 2 -> Some Quarantined
  | _ -> None

type replica_entry = { r_generation : int; r_health : health }

type shard_entry = {
  s_txs : int;
  s_pages : int;
  s_generation : int;
  s_replicas : replica_entry array;
}

type t = {
  generation : int;
  partition : partition;
  universe : int;
  n_txs : int;
  n_pages : int;
  replicas : int;
  shards : shard_entry array;
  checksums : int array;
}

exception Bad_manifest of string

let bad path fmt =
  Printf.ksprintf (fun m -> raise (Bad_manifest (path ^ ": " ^ m))) fmt

(* fixed part offsets.  v1 stopped at [h_universe] (fixed part 52 bytes,
   24-byte entries); v2 appends the per-shard replica count and extends
   each entry with (generation, health) per replica. *)
let h_version = 8
let h_partition = 12
let h_shards = 16
let h_generation = 20
let h_n_txs = 28
let h_n_pages = 36
let h_universe = 44
let h_replicas = 52
let fixed_bytes_v1 = 52
let fixed_bytes = 56
let entry_base = 24 (* 3 * u64 per shard *)
let replica_bytes = 12 (* u64 generation + u32 health per replica *)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)

let entry_bytes m = entry_base + (m.replicas * replica_bytes)

let encode m =
  let ns = Array.length m.shards in
  let eb = entry_bytes m in
  let total = fixed_bytes + (ns * eb) + (m.n_pages * 8) + 4 in
  let b = Bytes.make total '\000' in
  Bytes.blit_string magic 0 b 0 8;
  set_u32 b h_version version;
  set_u32 b h_partition 0;
  set_u32 b h_shards ns;
  set_u64 b h_generation m.generation;
  set_u64 b h_n_txs m.n_txs;
  set_u64 b h_n_pages m.n_pages;
  set_u64 b h_universe m.universe;
  set_u32 b h_replicas m.replicas;
  Array.iteri
    (fun k e ->
      let off = fixed_bytes + (k * eb) in
      set_u64 b off e.s_txs;
      set_u64 b (off + 8) e.s_pages;
      set_u64 b (off + 16) e.s_generation;
      Array.iteri
        (fun j r ->
          let roff = off + entry_base + (j * replica_bytes) in
          set_u64 b roff r.r_generation;
          set_u32 b (roff + 8) (health_code r.r_health))
        e.s_replicas)
    m.shards;
  let coff = fixed_bytes + (ns * eb) in
  Array.iteri (fun p sum -> set_u64 b (coff + (p * 8)) sum) m.checksums;
  set_u32 b (total - 4) (Cfq_store.Crc32.sub b 0 (total - 4));
  b

let write_all fd b =
  let off = ref 0 and len = ref (Bytes.length b) in
  while !len > 0 do
    let w = Unix.write fd b !off !len in
    off := !off + w;
    len := !len - w
  done

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let check m =
  if m.replicas < 1 then invalid_arg "Manifest: at least one replica required";
  if Array.length m.checksums <> m.n_pages then
    invalid_arg "Manifest: one checksum per composite page required";
  Array.iter
    (fun e ->
      if Array.length e.s_replicas <> m.replicas then
        invalid_arg "Manifest: one replica entry per replica required")
    m.shards

let write path m =
  check m;
  let b = encode m in
  let tmp = path ^ ".tmp" in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         write_all fd b;
         Unix.fsync fd)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp path;
  fsync_dir path

let read path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Bad_manifest (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.fstat fd).Unix.st_size in
      if len < fixed_bytes_v1 + 4 then bad path "truncated manifest";
      let b = Bytes.make len '\000' in
      let off = ref 0 in
      while !off < len do
        let r = Unix.read fd b !off (len - !off) in
        if r = 0 then bad path "unexpected end of file";
        off := !off + r
      done;
      if Bytes.sub_string b 0 8 <> magic then bad path "bad magic";
      let v = get_u32 b h_version in
      if v <> 1 && v <> version then bad path "unsupported version %d" v;
      let stored_crc = get_u32 b (len - 4) in
      if Cfq_store.Crc32.sub b 0 (len - 4) <> stored_crc then
        bad path "manifest CRC mismatch";
      if get_u32 b h_partition <> 0 then bad path "unknown partition kind";
      let ns = get_u32 b h_shards in
      let n_txs = get_u64 b h_n_txs in
      let n_pages = get_u64 b h_n_pages in
      if ns < 1 then bad path "no shards";
      let fixed = if v = 1 then fixed_bytes_v1 else fixed_bytes in
      let replicas =
        if v = 1 then 1
        else begin
          if len < fixed_bytes + 4 then bad path "truncated manifest";
          let r = get_u32 b h_replicas in
          if r < 1 then bad path "no replicas";
          r
        end
      in
      let eb = entry_base + (if v = 1 then 0 else replicas * replica_bytes) in
      if len <> fixed + (ns * eb) + (n_pages * 8) + 4 then
        bad path "manifest size does not match its shard/page counts";
      let shards =
        Array.init ns (fun k ->
            let off = fixed + (k * eb) in
            let s_generation = get_u64 b (off + 16) in
            let s_replicas =
              if v = 1 then [| { r_generation = s_generation; r_health = Healthy } |]
              else
                Array.init replicas (fun j ->
                    let roff = off + entry_base + (j * replica_bytes) in
                    let r_health =
                      match health_of_code (get_u32 b (roff + 8)) with
                      | Some h -> h
                      | None -> bad path "unknown replica health state"
                    in
                    { r_generation = get_u64 b roff; r_health })
            in
            {
              s_txs = get_u64 b off;
              s_pages = get_u64 b (off + 8);
              s_generation;
              s_replicas;
            })
      in
      if Array.fold_left (fun a e -> a + e.s_txs) 0 shards <> n_txs then
        bad path "shard transaction counts do not sum to the composite";
      if Array.fold_left (fun a e -> a + e.s_pages) 0 shards <> n_pages then
        bad path "shard page counts do not sum to the composite";
      let coff = fixed + (ns * eb) in
      let checksums = Array.init n_pages (fun p -> get_u64 b (coff + (p * 8))) in
      {
        generation = get_u64 b h_generation;
        partition = Tid_range;
        universe = get_u64 b h_universe;
        n_txs;
        n_pages;
        replicas;
        shards;
        checksums;
      })

let is_manifest path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let b = Bytes.make 8 '\000' in
          let rec fill off =
            if off >= 8 then true
            else
              match Unix.read fd b off (8 - off) with
              | 0 -> false
              | r -> fill (off + r)
          in
          fill 0 && Bytes.to_string b = magic)
