type t =
  | Transient_io of { page : int }
  | Corrupt_page of { page : int }
  | Deadline
  | Overload
  | Query_crash of string
  | No_live_source

exception Error of t

let raise_error e = raise (Error e)

let is_transient = function
  | Transient_io _ -> true
  | Corrupt_page _ | Deadline | Overload | Query_crash _ | No_live_source -> false

let to_string = function
  | Transient_io { page } -> Printf.sprintf "transient I/O error reading page %d" page
  | Corrupt_page { page } -> Printf.sprintf "checksum mismatch on page %d" page
  | Deadline -> "deadline exceeded"
  | Overload -> "overloaded: admission refused"
  | Query_crash msg -> "query crashed: " ^ msg
  | No_live_source -> "no live source attached: nothing to ingest into or seal"

(* readable payloads when an [Error] escapes uncaught *)
let () =
  Printexc.register_printer (function
    | Error e -> Some ("Cfq_error.Error (" ^ to_string e ^ ")")
    | _ -> None)
