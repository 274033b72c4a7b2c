open Cfq_core
open Cfq_shell

let unit name f = Alcotest.test_case name `Quick f

let contains = Astring_contains.contains

let session_with_db () =
  let db =
    Helpers.db_of_lists
      [ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 2 ] ]
  in
  Shell.create ~ctx:(Exec.context db (Helpers.small_info 4)) ()

let out t line = (Shell.eval t line).Shell.output

(* [run] output with its wall-clock [time: ...] line dropped, so two runs
   of the same query compare equal *)
let untimed output =
  String.split_on_char '\n' output
  |> List.filter (fun l -> not (String.starts_with ~prefix:"time: " (String.trim l)))
  |> String.concat "\n"

let suite =
  [
    unit "help lists the commands" (fun () ->
        let t = Shell.create () in
        let o = out t "help" in
        List.iter
          (fun cmd -> Alcotest.(check bool) cmd true (contains o cmd))
          [ "load"; "run"; "rules"; "advise"; "explain"; "set strategy" ]);
    unit "quit terminates" (fun () ->
        let t = Shell.create () in
        Alcotest.(check bool) "quit" true (Shell.eval t "quit").Shell.quit;
        Alcotest.(check bool) "exit" true (Shell.eval t "exit").Shell.quit;
        Alcotest.(check bool) "run does not" false (Shell.eval t "help").Shell.quit);
    unit "empty lines are ignored" (fun () ->
        let t = Shell.create () in
        Alcotest.(check string) "silent" "" (out t "   "));
    unit "commands needing data complain without a database" (fun () ->
        let t = Shell.create () in
        List.iter
          (fun line ->
            Alcotest.(check bool) line true (contains (out t line) "no database"))
          [ "run freq(S) >= 0.5"; "stats"; "advise freq(S) >= 0.5"; "explain S.Price >= 1" ]);
    unit "gen attaches a database" (fun () ->
        let t = Shell.create () in
        Alcotest.(check bool) "generated" true (contains (out t "gen 100 20") "100 transactions");
        Alcotest.(check bool) "stats work" true (contains (out t "stats") "transactions: 100"));
    unit "run executes and remembers the result" (fun () ->
        let t = session_with_db () in
        let o = out t "run freq(S) >= 0.3 & freq(T) >= 0.3" in
        Alcotest.(check bool) "pairs reported" true (contains o "pairs:");
        let p = out t "pairs 2" in
        Alcotest.(check bool) "pairs shown" true (contains p "=>"));
    unit "pairs before any run" (fun () ->
        let t = session_with_db () in
        Alcotest.(check bool) "complains" true (contains (out t "pairs 3") "no previous run"));
    unit "set strategy is respected and reported" (fun () ->
        let t = session_with_db () in
        Alcotest.(check bool) "set" true
          (contains (out t "set strategy apriori+") "apriori+");
        let o = out t "run freq(S) >= 0.3" in
        Alcotest.(check bool) "strategy in output" true (contains o "apriori+");
        Alcotest.(check bool) "unknown rejected" true
          (contains (out t "set strategy bogus") "unknown strategy"));
    unit "explain does not execute" (fun () ->
        let t = session_with_db () in
        let o = out t "explain max(S.Price) <= min(T.Price)" in
        Alcotest.(check bool) "mentions reduction" true (contains o "quasi-succinct");
        Alcotest.(check bool) "no pairs yet" true
          (contains (out t "pairs 1") "no previous run"));
    unit "advise answers" (fun () ->
        let t = session_with_db () in
        Alcotest.(check bool) "recommends" true
          (contains (out t "advise freq(S) >= 0.3 & S.Price <= 40") "recommended strategy"));
    unit "rules honour minconf" (fun () ->
        let t = session_with_db () in
        let _ = out t "set minconf 0.0" in
        let all = out t "rules freq(S) >= 0.3 & freq(T) >= 0.3" in
        let _ = out t "set minconf 1.0" in
        let strict = out t "rules freq(S) >= 0.3 & freq(T) >= 0.3" in
        Alcotest.(check bool) "loose has rules" true (contains all "conf=");
        Alcotest.(check bool) "reported thresholds differ" true (all <> strict));
    unit "parse and validation errors are reported, not raised" (fun () ->
        let t = session_with_db () in
        Alcotest.(check bool) "parse error" true
          (contains (out t "run freq(X) >= 1") "parse error");
        Alcotest.(check bool) "validation error" true
          (contains (out t "run sum(S.Nope) <= 3") "unknown attribute");
        Alcotest.(check bool) "support out of range" true
          (contains (out t "run {(S,T) | freq(S) >= 1.5 & freq(T) >= 0.1}") "parse error"));
    unit "load reports missing files gracefully" (fun () ->
        let t = Shell.create () in
        Alcotest.(check bool) "load failed" true
          (contains (out t "load /nonexistent/file.fimi") "load failed"));
    unit "export pairs and rules" (fun () ->
        let t = session_with_db () in
        let tmp = Filename.temp_file "cfq_shell" ".csv" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            Alcotest.(check bool) "needs a run first" true
              (contains (out t ("export pairs " ^ tmp)) "no previous run");
            let _ = out t "run freq(S) >= 0.3 & freq(T) >= 0.3" in
            Alcotest.(check bool) "export ok" true
              (contains (out t ("export pairs " ^ tmp)) "wrote");
            let content = In_channel.with_open_text tmp In_channel.input_all in
            Alcotest.(check bool) "csv header" true (contains content "s_items");
            let _ = out t "set minconf 0.0" in
            let _ = out t "rules freq(S) >= 0.3 & freq(T) >= 0.3" in
            Alcotest.(check bool) "rules export ok" true
              (contains (out t ("export rules " ^ tmp)) "wrote")));
    unit "profile summarises the last run" (fun () ->
        let t = session_with_db () in
        Alcotest.(check bool) "needs a run" true
          (contains (out t "profile") "no previous run");
        let _ = out t "run freq(S) >= 0.3 & freq(T) >= 0.3" in
        let o = out t "profile" in
        Alcotest.(check bool) "mentions frequent sets" true
          (contains o "frequent sets"));
    unit "unknown commands point at help" (fun () ->
        let t = Shell.create () in
        Alcotest.(check bool) "hint" true (contains (out t "frobnicate") "help"));
    unit "save / open round-trips through a persistent store" (fun () ->
        let t = session_with_db () in
        let q = "run freq(S) >= 0.3 & freq(T) >= 0.3" in
        let before = out t q in
        let path = Filename.temp_file "cfq_shell_store" ".cfqdb" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".wal"; path ^ ".info.csv" ])
          (fun () ->
            Alcotest.(check bool) "saved" true (contains (out t ("save " ^ path)) "wrote");
            let t2 = Shell.create () in
            Alcotest.(check bool) "opened" true
              (contains (out t2 ("open " ^ path ^ " 2")) "6 transactions");
            (* identical answers from the disk backend *)
            Alcotest.(check string) "same run output" (untimed before)
              (untimed (out t2 q));
            Alcotest.(check bool) "stats show the pool" true
              (contains (out t2 "stats") "store:");
            let _ = Shell.eval t2 "quit" in
            ()));
    unit "open rejects a non-store file" (fun () ->
        let t = Shell.create () in
        let tmp = Filename.temp_file "cfq_shell_bad" ".cfqdb" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            Out_channel.with_open_text tmp (fun oc -> output_string oc "not a segment");
            Alcotest.(check bool) "refused" true
              (contains (out t ("open " ^ tmp)) "open failed")));
    unit "ingest appends and seals" (fun () ->
        let t = Shell.create () in
        let path = Filename.temp_file "cfq_shell_ing" ".cfqdb" in
        let fimi = Filename.temp_file "cfq_shell_ing" ".fimi" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".wal"; fimi ])
          (fun () ->
            Out_channel.with_open_text fimi (fun oc -> output_string oc "0 1 2\n1 3\n");
            let _ = out t "gen 10 5" in
            Alcotest.(check bool) "saved" true (contains (out t ("save " ^ path)) "wrote");
            Alcotest.(check bool) "ingested" true
              (contains (out t ("ingest " ^ path ^ " " ^ fimi)) "now 12 total");
            Alcotest.(check bool) "reopen sees them" true
              (contains (out t ("open " ^ path)) "12 transactions")));
    unit "live ingest maintains the running service" (fun () ->
        let t = Shell.create () in
        let path = Filename.temp_file "cfq_shell_live" ".cfqdb" in
        let fimi = Filename.temp_file "cfq_shell_live" ".fimi" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".wal"; path ^ ".info.csv"; fimi ])
          (fun () ->
            Out_channel.with_open_text fimi (fun oc ->
                output_string oc "0 1\n0 1\n2 3\n");
            let _ = out t "gen 10 5" in
            let _ = out t ("save " ^ path) in
            Alcotest.(check bool) "opened" true
              (contains (out t ("open " ^ path)) "10 transactions");
            Alcotest.(check bool) "live before any service" true
              (contains (out t "live") "no service");
            (* cachestats spins the service up over the attached store *)
            let _ = out t "cachestats" in
            let o = out t ("ingest " ^ path ^ " " ^ fimi) in
            Alcotest.(check bool) "appended" true (contains o "now 13 total");
            Alcotest.(check bool) "epoch reported" true (contains o "epoch 1");
            Alcotest.(check bool) "live shows the seal" true
              (contains (out t "live") "epoch 1");
            (* the service survived the seal and its gauge moved *)
            let stats = out t "cachestats" in
            Alcotest.(check bool) "epoch gauge" true (contains stats "live epoch");
            Alcotest.(check bool) "stats still served" true
              (contains (out t "stats") "transactions: 13");
            ignore (Shell.eval t "quit")));
    unit "replicated shards: verify, failover, scrub repair" (fun () ->
        let t = session_with_db () in
        let q = "run freq(S) >= 0.3 & freq(T) >= 0.3" in
        let path = Filename.temp_file "cfq_shell_rep" ".cfqdb" in
        let m = path ^ ".sharded" in
        let shard_files =
          List.concat_map
            (fun s -> [ s; s ^ ".wal" ])
            [ m ^ ".shard0"; m ^ ".shard0.r1"; m ^ ".shard1"; m ^ ".shard1.r1" ]
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              ([ path; path ^ ".wal"; path ^ ".info.csv"; m ] @ shard_files))
          (fun () ->
            Alcotest.(check bool) "saved" true (contains (out t ("save " ^ path)) "wrote");
            let t2 = Shell.create () in
            Alcotest.(check bool) "replicas set" true
              (contains (out t2 "set replicas 2") "2 replicas per shard");
            Alcotest.(check bool) "opened replicated" true
              (contains (out t2 ("open " ^ path ^ " shards=2")) "x 2 replicas");
            let before = out t2 q in
            Alcotest.(check bool) "verify clean" true
              (contains (out t2 "verify") "all replicas healthy");
            Alcotest.(check bool) "stats show replica health" true
              (contains (out t2 "stats") "replica 1: healthy");
            (* pin a permanent fault to one replica: reads fail over to its
               sibling and the answer text is byte-identical *)
            Alcotest.(check bool) "replica fault pinned" true
              (contains (out t2 "set fault 1 0 7 shard=0 replica=0")
                 "(shard 0, replica 0)");
            Alcotest.(check string) "failover answers identically" (untimed before)
              (untimed (out t2 q));
            Alcotest.(check bool) "failover counted" true
              (contains (out t2 "stats") "failovers: ");
            Alcotest.(check bool) "fault cleared" true
              (contains (out t2 "set fault off shard=0 replica=0")
                 "(shard 0, replica 0)");
            (* rot a data page of shard 1's first replica on disk *)
            let victim = m ^ ".shard1" in
            let fd = Unix.openfile victim [ Unix.O_RDWR ] 0 in
            ignore (Unix.lseek fd 4101 Unix.SEEK_SET);
            let b = Bytes.create 1 in
            ignore (Unix.read fd b 0 1);
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
            ignore (Unix.lseek fd 4101 Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1);
            Unix.close fd;
            Alcotest.(check bool) "verify flags the rot" true
              (contains (out t2 "verify") "VERIFICATION FAILED");
            Alcotest.(check bool) "scrub rebuilds the replica" true
              (contains (out t2 "scrub") "1 replicas repaired");
            Alcotest.(check bool) "verify clean after repair" true
              (contains (out t2 "verify") "all replicas healthy");
            Alcotest.(check string) "post-repair answers identically"
              (untimed before) (untimed (out t2 q));
            let _ = Shell.eval t2 "quit" in
            ()));
    unit "ingest reaches an attached sharded store by either name" (fun () ->
        let t = session_with_db () in
        let path = Filename.temp_file "cfq_shell_twin" ".cfqdb" in
        let m = path ^ ".sharded" in
        let fimi = Filename.temp_file "cfq_shell_twin" ".fimi" in
        Fun.protect
          ~finally:(fun () ->
            Cfq_shard.Sharded.remove_files m;
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".wal"; path ^ ".info.csv"; fimi ])
          (fun () ->
            Out_channel.with_open_text fimi (fun oc -> output_string oc "0 1\n2 3\n");
            let _ = out t ("save " ^ path) in
            let t2 = Shell.create () in
            Alcotest.(check bool) "opened sharded" true
              (contains (out t2 ("open " ^ path ^ " shards=2")) "2 shards");
            (* the plain segment the twin was split from names the twin *)
            Alcotest.(check bool) "ingest by segment" true
              (contains (out t2 ("ingest " ^ path ^ " " ^ fimi)) "now 8 total");
            Alcotest.(check bool) "stats see the appends" true
              (contains (out t2 "stats") "transactions: 8");
            Alcotest.(check bool) "ingest by manifest" true
              (contains (out t2 ("ingest " ^ m ^ " " ^ fimi)) "now 10 total");
            Alcotest.(check bool) "stats see both" true
              (contains (out t2 "stats") "transactions: 10");
            (* a running service follows the seal to the next epoch *)
            let _ = out t2 "cachestats" in
            let o = out t2 ("ingest " ^ path ^ " " ^ fimi) in
            Alcotest.(check bool) "service kept live" true
              (contains o "now 12 total" && contains o "epoch 3");
            Alcotest.(check bool) "live sees the sharded source" true
              (contains (out t2 "live") "source: sharded, 12 transactions sealed");
            Alcotest.(check bool) "stats after the live seal" true
              (contains (out t2 "stats") "transactions: 12");
            (* the plain segment itself was never appended to *)
            Alcotest.(check bool) "segment untouched" true
              (contains (out (Shell.create ()) ("open " ^ path)) "6 transactions");
            let _ = Shell.eval t2 "quit" in
            ()));
    unit "mine-domains 0 counts on every recommended domain" (fun () ->
        (* 4,096 rows, enough for the default to fan out, as [cfq run] does *)
        let db = Cfq_txdb.Tx_db.create (Helpers.seeded_rows ~seed:3 ~n:8 4096) in
        let t = Shell.create ~ctx:(Exec.context db (Helpers.small_info 8)) () in
        let q = "run freq(S) >= 0.1 & freq(T) >= 0.1 & max(S.Price) <= min(T.Price)" in
        let answers o =
          String.split_on_char '\n' (untimed o)
          |> List.filter (fun l -> not (contains l "counting kernels"))
        in
        let _ = out t "set mine-domains 0" in
        let wide = out t q in
        let cores = Domain.recommended_domain_count () in
        Alcotest.(check bool) "every recommended domain" true
          (contains wide
             (Printf.sprintf "on %d domain%s:" cores (if cores = 1 then "" else "s")));
        let _ = out t "set mine-domains 1" in
        let narrow = out t q in
        Alcotest.(check bool) "one domain" true (contains narrow "on 1 domain:");
        Alcotest.(check (list string)) "same answers" (answers narrow) (answers wide));
    unit "load sizes the table to cover every item the CSV lists" (fun () ->
        (* the data's largest item is 2, the table names items up to 5, as
           a generated table names every item of its universe *)
        let fimi = Filename.temp_file "cfq_shell_load" ".fimi" in
        let csv = Filename.temp_file "cfq_shell_load" ".csv" in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ fimi; csv ])
          (fun () ->
            Out_channel.with_open_text fimi (fun oc -> output_string oc "0 1\n1 2\n0 1 2\n");
            Out_channel.with_open_text csv (fun oc ->
                output_string oc "item,Price\n0,10\n1,20\n2,30\n3,40\n4,50\n5,60\n");
            let t = Shell.create () in
            Alcotest.(check bool) "loaded" true
              (contains (out t (Printf.sprintf "load %s %s" fimi csv))
                 "loaded 3 transactions over 6 items");
            let q = "run freq(S) >= 0.5 & freq(T) >= 0.5 & S.Price <= 20" in
            Alcotest.(check bool) "the table's attributes answer" true
              (contains (out t q) "pairs:")));
    unit "set fault reads its seed as an integer" (fun () ->
        let db = Helpers.db_of_lists [ [ 0; 1 ]; [ 1; 2 ] ] in
        let t = Shell.create ~ctx:(Exec.context db (Helpers.small_info 3)) () in
        let seed () =
          Option.map (fun f -> (Cfq_txdb.Fault.config f).Cfq_txdb.Fault.seed)
            (Cfq_txdb.Tx_db.faults db)
        in
        Alcotest.(check bool) "a fraction is a usage error" true
          (contains (out t "set fault 0.1 0 2.7") "usage: set fault");
        Alcotest.(check (option int64)) "nothing installed" None (seed ());
        Alcotest.(check bool) "reported exactly" true
          (contains (out t "set fault 0.1 0 9007199254740993") "seed=9007199254740993");
        Alcotest.(check (option int64)) "seeded exactly" (Some 9007199254740993L) (seed ()));
  ]
