open Cfq_core

type entry = {
  key : string;
  epoch : int;  (* database generation the supports are exact for *)
  query : Query.t;  (* simplified *)
  notes : string list;
  packed : Packed.weighed;
}

let make ~key ~epoch query ~notes packed = { key; epoch; query; notes; packed }
let notes e = e.notes
let packed e = e.packed.Packed.pk
let weight e = e.packed.Packed.packed_weight

type found =
  | Hit of entry
  | Stale of entry
  | Miss

let lookup answers ~epoch key =
  match Lru.find answers key with
  | Some e when e.epoch = epoch -> Hit e
  | Some e when e.epoch < epoch -> Stale e
  | Some _ | None -> Miss

(* both sides by the side cache's covering rule, and every 2-var atom the
   cached run enforced is requested too *)
let covers ctx ~(cached : Query.t) ~(requested : Query.t) =
  let side s =
    Side_cache.covers ~cached:(Side_cache.side ctx cached s)
      ~requested:(Side_cache.side ctx requested s)
  in
  side `S && side `T
  && List.for_all (fun c -> List.mem c requested.Query.two_var) cached.Query.two_var

let covering answers ctx ~epoch q =
  (* MRU-first: the first covering answer is the most recent one.  The
     fold reads values, not keys, so the epoch stamp alone keeps pre-seal
     supports out *)
  let hit =
    Lru.fold
      (fun best ~key:_ ~value:e ->
        match best with
        | Some _ -> best
        | None -> if e.epoch = epoch && covers ctx ~cached:e.query ~requested:q then Some e else None)
      None answers
  in
  Option.iter (fun e -> ignore (Lru.find answers e.key : entry option)) hit;
  hit

let degrade (ctx : Exec.ctx) (q : Query.t) e =
  let checks = ref 0 in
  let pk = e.packed.Packed.pk in
  let valid_s = Side_cache.filter_entries (Side_cache.side ctx q `S) pk.Packed.pk_s checks in
  let valid_t = Side_cache.filter_entries (Side_cache.side ctx q `T) pk.Packed.pk_t checks in
  let stats, joined =
    Packed.join ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info ~valid_s ~valid_t
      ~two_var:q.Query.two_var
  in
  (!checks + stats.Pairs.checks, joined.Packed.pk)

let promote (ctx : Exec.ctx) ~epoch (q : Query.t) e ~valid_s ~valid_t =
  let packed =
    Packed.delta_join ~s_info:ctx.Exec.s_info ~t_info:ctx.Exec.t_info ~two_var:q.Query.two_var
      e.packed.Packed.pk ~valid_s ~valid_t
  in
  { e with epoch; query = q; packed }

let insert answers metrics ~current e =
  if e.epoch = current then begin
    Metrics.record_condensed metrics ~raw:e.packed.Packed.raw_weight ~stored:(weight e)
      ~condensed:true;
    ignore (Lru.insert answers e.key ~weight:(weight e) e : bool)
  end

let drop answers e =
  match Lru.find answers e.key with
  | Some cur when cur == e -> Lru.remove answers e.key
  | Some _ | None -> ()

let rekey answers ctx =
  (* fold is MRU-first; consing flips to LRU-first, so re-insertions
     preserve the recency order *)
  let all = Lru.fold (fun acc ~key:_ ~value -> value :: acc) [] answers in
  List.iter (fun e -> Lru.remove answers e.key) all;
  List.fold_left
    (fun (carried, dropped) e ->
      let e = { e with key = Fingerprint.query_key ctx e.query } in
      let taken = Lru.mem answers e.key in
      if Lru.insert answers e.key ~weight:(weight e) e && not taken then (carried + 1, dropped)
      else (carried, dropped + 1))
    (0, 0) all
