open Cfq_itembase

exception Bad_format of string

let fail name line fmt =
  Format.kasprintf (fun s -> raise (Bad_format (Printf.sprintf "%s:%d: %s" name line s))) fmt

let split_csv line = String.split_on_char ',' line |> List.map String.trim

let attr_of_header h =
  match String.index_opt h ':' with
  | Some i when String.sub h (i + 1) (String.length h - i - 1) = "cat" ->
      Attr.make (String.sub h 0 i) Attr.Categorical
  | Some _ | None -> Attr.make h Attr.Numeric

let read_lines name lines ~universe_size =
  match List.filter (fun l -> String.trim l <> "") lines with
  | [] -> raise (Bad_format (name ^ ":1: empty file"))
  | header :: rows ->
      let attrs =
        match split_csv header with
        | _item :: rest when rest <> [] -> List.map attr_of_header rest
        | _ -> fail name 1 "header must be: item,<attr>[,<attr>...]"
      in
      let columns = List.map (fun _ -> Array.make universe_size 0.) attrs in
      List.iteri
        (fun i row ->
          let lineno = i + 2 in
          match split_csv row with
          | item :: values -> (
              match int_of_string_opt item with
              | Some id when id >= 0 && id < universe_size ->
                  if List.length values <> List.length attrs then
                    fail name lineno "expected %d values" (List.length attrs);
                  List.iter2
                    (fun col v ->
                      match float_of_string_opt v with
                      | Some f -> col.(id) <- f
                      | None -> fail name lineno "not a number: %S" v)
                    columns values
              | Some id -> fail name lineno "item %d outside universe [0,%d)" id universe_size
              | None -> fail name lineno "not an item id: %S" item)
          | [] -> ())
        rows;
      let info = Item_info.create ~universe_size in
      List.iter2 (fun attr col -> Item_info.add_column info attr col) attrs columns;
      info

let read_string ?(name = "<string>") data ~universe_size =
  read_lines name (String.split_on_char '\n' data) ~universe_size

let lines_of path = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)

let read path ~universe_size = read_lines path (lines_of path) ~universe_size

let max_item path =
  match lines_of path with
  | [] -> -1
  | _header :: rows ->
      let id row = Option.value (int_of_string_opt (List.hd (split_csv row))) ~default:(-1) in
      List.fold_left (fun acc row -> max acc (id row)) (-1) rows

let write path info =
  let attrs = Item_info.attrs info in
  let oc = open_out path in
  (try
     output_string oc "item";
     List.iter
       (fun a ->
         output_char oc ',';
         output_string oc a.Attr.name;
         if a.Attr.kind = Attr.Categorical then output_string oc ":cat")
       attrs;
     output_char oc '\n';
     for i = 0 to Item_info.universe_size info - 1 do
       output_string oc (string_of_int i);
       List.iter
         (fun a -> Printf.fprintf oc ",%g" (Item_info.value info a i))
         attrs;
       output_char oc '\n'
     done
   with e ->
     close_out oc;
     raise e);
  close_out oc
