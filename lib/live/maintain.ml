open Cfq_mining

type side = {
  frequent : Frequent.t;
  old_minsup : int;
  max_level : int option;
}

type stats = {
  recounted : int;
  old_scans : int;
}

(* The collection was mined at absolute threshold [m] over [base] rows, so
   it answers every fraction f with ceil(f·base) >= m, i.e. f > (m-1)/base.
   For those f over the union, ceil(f·union) > (m-1)·union/base, hence
   >= floor((m-1)·union/base) + 1 — promoting to that threshold keeps every
   previously answerable fraction answerable.  It is >= m (union >= base),
   so the FUP seeding threshold stays positive. *)
let promoted_minsup ~old_minsup ~base_txs ~union_txs =
  if base_txs = 0 then max 1 old_minsup
  else max old_minsup (((old_minsup - 1) * union_txs / base_txs) + 1)

let promote_all ?stats:lstats ~old_db ~(delta : Delta.t) io ~universe_size sides =
  let union_minsup s =
    promoted_minsup ~old_minsup:s.old_minsup ~base_txs:delta.Delta.base_txs
      ~union_txs:(Delta.union_txs delta)
  in
  let outcome =
    Incremental.update_abs ?stats:lstats ~old_db ~delta:delta.Delta.twin io
      ~universe_size
      (List.map
         (fun s ->
           {
             Incremental.old_frequent = s.frequent;
             old_minsup = s.old_minsup;
             union_minsup = union_minsup s;
             max_level = s.max_level;
           })
         sides)
  in
  ( List.map2
      (fun s r -> Result.map (fun f -> (f, union_minsup s)) r)
      sides outcome.Incremental.frequent,
    {
      recounted = outcome.Incremental.counted_against_old;
      old_scans = outcome.Incremental.old_scans;
    } )
