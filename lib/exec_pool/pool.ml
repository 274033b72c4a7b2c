type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn

type 'a promise = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable state : 'a state;
}

(* a queued job; [started] and [cancelled] are read and written only under
   the pool mutex, so a job is observed in exactly one of three states:
   waiting (neither), running (started), or dead (cancelled, never run) *)
type entry = {
  run : unit -> unit;
  mutable started : bool;
  mutable cancelled : bool;
}

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : entry Queue.t;
  capacity : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.mutex
    done;
    match Queue.take_opt t.jobs with
    | Some entry ->
        if entry.cancelled then begin
          Mutex.unlock t.mutex;
          loop ()
        end
        else begin
          entry.started <- true;
          Mutex.unlock t.mutex;
          entry.run ();
          loop ()
        end
    | None ->
        (* stopping and drained *)
        Mutex.unlock t.mutex
  in
  loop ()

let create ?domains ?(queue_capacity = 1024) () =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      capacity = max 1 queue_capacity;
      stopping = false;
      workers = [];
    }
  in
  t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let queue_depth t =
  Mutex.lock t.mutex;
  let n = Queue.length t.jobs in
  Mutex.unlock t.mutex;
  n

let fulfill p outcome =
  Mutex.lock p.p_mutex;
  p.state <- outcome;
  Condition.broadcast p.p_cond;
  Mutex.unlock p.p_mutex

let job_of promise job () =
  match job () with
  | v -> fulfill promise (Done v)
  | exception e -> fulfill promise (Raised e)

let submit_entry t job =
  let promise = { p_mutex = Mutex.create (); p_cond = Condition.create (); state = Pending } in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    Cfq_txdb.Cfq_error.raise_error Cfq_txdb.Cfq_error.Overload
  end
  else if Queue.length t.jobs >= t.capacity then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    let entry = { run = job_of promise job; started = false; cancelled = false } in
    Queue.add entry t.jobs;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex;
    Some (promise, entry)
  end

let submit t job = Option.map fst (submit_entry t job)

(* [true] when the job was withdrawn before any worker picked it up; a
   cancelled entry stays queued until a worker pops and skips it *)
let try_cancel t entry =
  Mutex.lock t.mutex;
  let cancelled =
    if entry.started then false
    else begin
      entry.cancelled <- true;
      true
    end
  in
  Mutex.unlock t.mutex;
  cancelled

let is_pending p = match p.state with Pending -> true | Done _ | Raised _ -> false

let await p =
  Mutex.lock p.p_mutex;
  while is_pending p do
    Condition.wait p.p_cond p.p_mutex
  done;
  let state = p.state in
  Mutex.unlock p.p_mutex;
  match state with
  | Done v -> v
  | Raised e -> raise e
  | Pending -> assert false

let is_stopped t =
  Mutex.lock t.mutex;
  let s = t.stopping in
  Mutex.unlock t.mutex;
  s

let run ?(on_fallback = fun () -> ()) t job =
  let inline () =
    on_fallback ();
    job ()
  in
  match submit t job with
  | Some p -> await p
  | None -> inline ()
  | exception Cfq_txdb.Cfq_error.Error Cfq_txdb.Cfq_error.Overload -> inline ()

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then
    (* already shut down: a documented no-op *)
    Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    let workers = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join workers
  end

(* ------------------------------------------------------------------ *)
(* work-sharing parallel regions *)

type helper =
  | Spawned of unit Domain.t
  | Borrowed of (unit promise * entry)

let fan_out ?pool ~domains ~n_tasks ~init ~work () =
  (* never stand up more participants than there are tasks: the surplus
     would spawn (or occupy a pool worker), find the counter drained, and
     contribute only an empty accumulator to the merge *)
  let domains = max 1 (min domains n_tasks) in
  if domains = 1 || n_tasks <= 0 then begin
    (* degraded region: the caller does everything, nothing is spawned or
       borrowed — bit-for-bit the sequential path *)
    let acc = init () in
    for i = 0 to n_tasks - 1 do
      work acc i
    done;
    [ acc ]
  end
  else begin
    let next = Atomic.make 0 in
    let stop = Atomic.make false in
    let failure = Atomic.make None in
    (* accumulator slots: caller is slot 0, helpers 1..domains-1; filled by
       whichever participant owns the slot, collected in slot order *)
    let accs = Array.make domains None in
    let participant slot () =
      let acc = init () in
      accs.(slot) <- Some acc;
      try
        let rec grab () =
          if not (Atomic.get stop) then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n_tasks then begin
              work acc i;
              grab ()
            end
          end
        in
        grab ()
      with e ->
        (* first failure wins; poison the region so other participants
           stop grabbing chunks, and re-raise from the caller below *)
        ignore (Atomic.compare_and_set failure None (Some e) : bool);
        Atomic.set stop true
    in
    let helpers =
      List.init (domains - 1) (fun k ->
          let slot = k + 1 in
          match pool with
          | None -> Some (Spawned (Domain.spawn (participant slot)))
          | Some p -> (
              (* borrow an idle worker: if the queue refuses (full) or the
                 pool is shut down, simply run with fewer participants *)
              match submit_entry p (participant slot) with
              | Some (promise, entry) -> Some (Borrowed (promise, entry))
              | None -> None
              | exception Cfq_txdb.Cfq_error.Error Cfq_txdb.Cfq_error.Overload -> None))
    in
    participant 0 ();
    List.iter
      (function
        | None -> ()
        | Some (Spawned d) -> Domain.join d
        | Some (Borrowed (promise, entry)) -> (
            (* a helper that no worker picked up is withdrawn — the caller
               already drained the chunk counter; one that did start is
               awaited (it terminates as soon as the chunks run out) *)
            match pool with
            | Some p when try_cancel p entry -> ()
            | _ -> await promise))
      helpers;
    match Atomic.get failure with
    | Some e -> raise e
    | None ->
        List.filter_map
          (fun slot -> slot)
          (Array.to_list accs)
  end
