(* Spans recorded by the benchmark client around its calls into each
   layer.  They stay in memory while a phase runs and are written out when
   the run ends; with tracing off, [span] only calls its function.  The
   client is single-threaded (the service computes on its own domains, but
   every call into it is made and timed here), so one stack suffices. *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  qid : int;  (** the query (or operation) the span belongs to *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1

let reset () =
  spans := [];
  stack := [];
  next_id := 1

let span ?(qid = 0) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        spans := { id; parent; qid; name; start; stop } :: !spans)
      f
  end

let recorded () = List.rev !spans
let duration s = s.stop -. s.start

(* Per span name, its self time: each span's duration minus the part of
   it that its child spans cover. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let top_level_time spans =
  List.fold_left (fun acc s -> if s.parent = 0 then acc +. duration s else acc) 0. spans

let to_json spans =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("parent", Json.Num (float_of_int s.parent));
             ("qid", Json.Num (float_of_int s.qid));
             ("name", Json.Str s.name);
             ("start", Json.Num s.start);
             ("end", Json.Num s.stop);
           ])
       spans)
