open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_core

(* Databases and attribute tables carry their own ids, so a fingerprint
   keeps neither alive. *)

let db_id = Tx_db.id
let sorted_unique strings = List.sort_uniq String.compare strings

let side_constraints cs =
  String.concat " & " (sorted_unique (List.map One_var.to_string cs))

let side_key ~info ~minsup_abs ~max_level cs =
  Printf.sprintf "side|info=%d|minsup=%d|maxlvl=%s|%s" (Item_info.id info) minsup_abs
    (match max_level with None -> "-" | Some l -> string_of_int l)
    (side_constraints cs)

let query_key (ctx : Exec.ctx) (q : Query.t) =
  let two =
    String.concat " & " (sorted_unique (List.map Two_var.to_string q.Query.two_var))
  in
  Printf.sprintf "query|db=%d|S<%s>|T<%s>|2<%s>"
    (db_id ctx.Exec.db)
    (side_key ~info:ctx.Exec.s_info
       ~minsup_abs:(Tx_db.absolute_support ctx.Exec.db q.Query.s_minsup)
       ~max_level:q.Query.max_level q.Query.s_constraints)
    (side_key ~info:ctx.Exec.t_info
       ~minsup_abs:(Tx_db.absolute_support ctx.Exec.db q.Query.t_minsup)
       ~max_level:q.Query.max_level q.Query.t_constraints)
    two
