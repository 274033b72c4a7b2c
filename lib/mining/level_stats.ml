type row = {
  level : int;
  candidates : int;
  counted : int;
  frequent : int;
  kernel : string;
}

type t = { mutable rows : row list (* reverse order *) }

let create () = { rows = [] }
let record t r = t.rows <- r :: t.rows
let rows t = List.rev t.rows

let pp ppf t =
  List.iter
    (fun r ->
      Format.fprintf ppf "L%d: cand=%d counted=%d freq=%d kernel=%s@." r.level
        r.candidates r.counted r.frequent r.kernel)
    (rows t)
