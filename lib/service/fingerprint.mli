(** Canonical cache keys for CFQs.

    A fingerprint identifies what a query {e answers over}: the physical
    database and attribute tables, the absolute support thresholds, the
    lattice depth cap, and the normalised constraint sets ({!Cfq_core.Rewrite}
    applied, atoms sorted so that conjunction order is irrelevant).  Two
    queries with equal fingerprints have equal answers. *)

open Cfq_itembase
open Cfq_txdb
open Cfq_constr
open Cfq_core

(** [db_id db] is a process-wide token for the physical identity of [db]:
    its {!Tx_db.id}.  The same value always maps to the same id;
    structurally equal but distinct values get distinct ids (fingerprints
    never alias across reloads), and fingerprinting a database does not
    keep it alive. *)
val db_id : Tx_db.t -> int

(** [side_key ~info ~minsup_abs ~max_level cs] keys one side's frequent
    collection: attribute table (its {!Item_info.id}, which keeps no
    table alive), absolute threshold, depth cap, and the constraint set,
    sorted and deduplicated. *)
val side_key :
  info:Item_info.t -> minsup_abs:int -> max_level:int option -> One_var.t list -> string

(** [query_key ctx q] keys the full answer of [q] (already normalised by
    {!Rewrite.simplify}) against [ctx]'s database and tables. *)
val query_key : Exec.ctx -> Query.t -> string
