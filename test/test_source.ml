(* The backend front door: which backend a path denotes (Source.open_),
   typed errors with no leaked descriptors, and fault targets that reject
   what does not exist. *)

open Cfq_itembase
module Source = Cfq_live.Source
module Sharded = Cfq_shard.Sharded

let unit name f = Alcotest.test_case name `Quick f

let sets =
  Array.of_list
    (List.map Itemset.of_list
       [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ]; [ 1; 3 ]; [ 0; 2; 3 ]; [ 1 ] ])

let disk ?(shards = 1) ?(replicas = 1) path =
  Source.Disk { path; cache_pages = None; shards; replicas }

let opened spec =
  match Source.open_ spec with Ok s -> s | Error msg -> Alcotest.fail msg

(* a plain segment at a fresh path; every file a test derives from it is
   removed afterwards *)
let with_segment f =
  let path = Filename.temp_file "cfq_source" ".cfqdb" in
  Cfq_store.Store.build path sets;
  Fun.protect
    ~finally:(fun () ->
      List.iter Sharded.remove_files [ path ^ ".sharded"; path ^ ".m" ];
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () -> f path)

let check_backend name src ~backend ~shards =
  Alcotest.(check string) (name ^ ": backend") backend (Source.backend_name src);
  Alcotest.(check int) (name ^ ": size") (Array.length sets) (Source.size src);
  Alcotest.(check int)
    (name ^ ": shards")
    shards
    (Option.fold ~none:1 ~some:Sharded.shard_count (Source.sharded src))

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let suite =
  [
    unit "open: a plain segment opens as a store" (fun () ->
        with_segment (fun path ->
            let src = opened (disk path) in
            check_backend "plain" src ~backend:"store" ~shards:1;
            Alcotest.(check (option string)) "path" (Some path) (Source.path src);
            Source.close src));
    unit "open: a manifest opens sharded" (fun () ->
        with_segment (fun path ->
            let m = path ^ ".m" in
            Sharded.build ~shards:2 m sets;
            let src = opened (disk m) in
            check_backend "manifest" src ~backend:"sharded" ~shards:2;
            Source.close src));
    unit "open: shards=N splits once, then reuses the twin" (fun () ->
        with_segment (fun path ->
            let src = opened (disk ~shards:2 path) in
            check_backend "split" src ~backend:"sharded" ~shards:2;
            Alcotest.(check (option string))
              "twin" (Some (path ^ ".sharded")) (Source.path src);
            Alcotest.(check bool) "named by its segment" true (Source.located_at src path);
            Source.close src;
            (* a second open finds the twin and does not re-split *)
            let again = opened (disk ~shards:3 path) in
            check_backend "reused" again ~backend:"sharded" ~shards:2;
            Source.close again));
    unit "open: replicas=2 without shards opens sharded" (fun () ->
        with_segment (fun path ->
            let src = opened (disk ~replicas:2 path) in
            check_backend "replicated" src ~backend:"sharded" ~shards:1;
            Alcotest.(check int) "replicas" 2
              (Option.fold ~none:1 ~some:Sharded.replicas (Source.sharded src));
            Source.close src));
    unit "open: a non-store file is an Error and leaks no fd" (fun () ->
        let path = Filename.temp_file "cfq_source_bad" ".cfqdb" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".wal"; path ^ ".sharded" ])
          (fun () ->
            Out_channel.with_open_text path (fun oc -> output_string oc "not a segment");
            let before = open_fds () in
            List.iter
              (fun (name, spec) ->
                match Source.open_ spec with
                | Ok _ -> Alcotest.failf "%s: opened a non-store file" name
                | Error _ -> ())
              [
                ("plain", disk path);
                ("split", disk ~shards:2 path);
                ("replicated", disk ~replicas:2 path);
                ("missing", disk (path ^ ".absent"));
                ("zero shards", disk ~shards:0 path);
              ];
            Alcotest.(check int) "no leaked fds" before (open_fds ())));
    unit "item_info covers CSV items the data never uses" (fun () ->
        with_segment (fun path ->
            (* the data's universe is [0,4); the table lists items up to 5 *)
            let csv = path ^ ".info.csv" in
            Out_channel.with_open_text csv (fun oc -> output_string oc "item,Price\n0,1\n5,7\n");
            let src = opened (disk path) in
            let info = Source.item_info src in
            Source.close src;
            Sys.remove csv;
            match info with
            | Ok info -> Alcotest.(check int) "universe" 6 (Item_info.universe_size info)
            | Error msg -> Alcotest.fail msg));
    unit "set_fault: bad targets are Errors" (fun () ->
        with_segment (fun path ->
            let is_error name r =
              Alcotest.(check bool) name true (Result.is_error r)
            in
            let f = Some (Cfq_txdb.Fault.create Cfq_txdb.Fault.default_config) in
            let mem = opened (Source.Mem sets) in
            is_error "shard pin in memory" (Source.set_fault mem ~shard:0 f);
            Alcotest.(check bool) "unscoped in memory" true
              (Result.is_ok (Source.set_fault mem f));
            let plain = opened (disk path) in
            is_error "shard pin on a plain store" (Source.set_fault plain ~shard:0 f);
            Source.close plain;
            let sh = opened (disk ~shards:2 ~replicas:2 path) in
            is_error "shard out of range" (Source.set_fault sh ~shard:2 f);
            is_error "negative shard" (Source.set_fault sh ~shard:(-1) f);
            is_error "replica out of range" (Source.set_fault sh ~shard:0 ~replica:2 f);
            is_error "replica without shard" (Source.set_fault sh ~replica:0 f);
            List.iter
              (fun (name, r) -> Alcotest.(check bool) name true (Result.is_ok r))
              [
                ("replica pin", Source.set_fault sh ~shard:1 ~replica:1 f);
                ("replica clear", Source.set_fault sh ~shard:1 ~replica:1 None);
                ("shard pin", Source.set_fault sh ~shard:1 f);
                ("shard clear", Source.set_fault sh ~shard:1 None);
              ];
            Source.close sh));
  ]
