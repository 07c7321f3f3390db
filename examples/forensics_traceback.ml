(* Forensics (Section 3 use case; Sections 4.2 and 5 techniques).

   Three historical-analysis tools on one attack scenario:
   1. offline provenance - the expired soft state whose provenance was
      retired to the persisted provenance log, read back from disk;
   2. ForNet-style Bloom digests - compact per-epoch summaries of
      forwarded traffic, persisted in a provenance log and queried to
      locate a packet's path;
   3. IP-traceback-style sampling and random moonwalks - probabilistic
      reconstruction of attack paths.

   Run with: dune exec examples/forensics_traceback.exe *)

(* Remove a directory tree (the example's temporary log). *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  print_endline "== Forensics: offline provenance, digests, sampling ==\n";

  (* --- 1. offline provenance of expired routes --------------------- *)
  let topo = Net.Topology.line ~n:5 () in
  let log_dir = Filename.temp_dir "psn-forensics-" "" in
  at_exit (fun () -> rm_rf log_dir);
  let cfg =
    Core.Config.with_prov_log
      { Core.Config.sendlog_prov with rsa_bits = 384 }
      (Some log_dir)
  in
  let program =
    Ndlog.Parser.parse_program_exn ("#ttl path 5.\n" ^ Ndlog.Programs.best_path_src)
  in
  let t = Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:31) ~cfg ~topo ~program () in
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  let live_before = List.length (Core.Runtime.query_all t "path") in
  Core.Runtime.advance t ~seconds:10.0;
  let live_after = List.length (Core.Runtime.query_all t "path") in
  (* Checkpoint the live tuples (the link facts the routes rest on),
     then close the runtime and its log; a fresh handle recovers the
     records from disk, as a later forensic session would. *)
  Core.Runtime.sync_prov_log t;
  Core.Runtime.shutdown t;
  let log = Store.Prov_log.open_log ~dir:log_dir () in
  let retired =
    List.concat_map
      (fun ident ->
        List.filter
          (fun (r : Store.Prov_log.record) -> not r.r_live)
          (Store.Prov_log.lookup log ~ident))
      (Store.Prov_log.idents_of_relation log "path")
  in
  Printf.printf
    "path tuples: %d live before expiry, %d after; %d retired to the offline log\n"
    live_before live_after (List.length retired);
  (* A record holds the tuple's derivations; the offline walk over
     them, down to the checkpointed link facts, gives its provenance
     expression. *)
  (match retired with
  | r :: _ ->
    let walk =
      Core.Traceback.offline_query log ~at:r.r_node ~ident:(Engine.Tuple.identity r.r_tuple) ()
    in
    Printf.printf "  e.g. at %s: %s expired at t=%.1f, provenance %s\n" r.r_node
      (Engine.Tuple.to_string r.r_tuple)
      r.r_at
      (Provenance.Prov_expr.to_annotation walk.Core.Traceback.expr)
  | [] -> ());
  Store.Prov_log.close log;

  (* --- 2. ForNet Bloom digests ------------------------------------- *)
  print_endline "\nForNet-style Bloom digests:";
  (* Per-(node, epoch) digests live in a provenance log of their own. *)
  let digests =
    Store.Prov_log.open_log ~digest_expected:1000 ~digest_fp_rate:0.01
      ~dir:(Filename.concat log_dir "digests") ()
  in
  let path = [ "n4"; "n3"; "n2"; "n1"; "n0" ] in
  let attack_packet = "pkt:evil-flow-1234:77" in
  (* The attack packet traverses n4..n0; background traffic fills the
     digests of every node. *)
  List.iter
    (fun node -> Store.Prov_log.record_digest digests ~node ~time:10.0 attack_packet)
    path;
  let rng = Crypto.Rng.create ~seed:32 in
  for i = 0 to 4999 do
    let node = Printf.sprintf "n%d" (Crypto.Rng.int rng 5) in
    Store.Prov_log.record_digest digests ~node ~time:10.0 (Printf.sprintf "pkt:bg-%d" i)
  done;
  Store.Prov_log.flush digests;
  let hits = Store.Prov_log.digest_nodes digests ~time:10.0 attack_packet in
  Printf.printf "  query(%s) -> forwarded by %s (true path: %s)\n" attack_packet
    (String.concat "," hits)
    (String.concat "," (List.sort compare path));
  Printf.printf "  digest storage: %d bytes on disk (vs %d packet records)\n"
    (Store.Prov_log.bytes_on_disk digests) 5005;
  Store.Prov_log.close digests;

  (* --- 3. IP-traceback sampling ------------------------------------ *)
  print_endline "\nIP-traceback-style probabilistic marking:";
  List.iter
    (fun (prob, n_packets) ->
      let sim =
        Core.Forensics.simulate_traceback (Crypto.Rng.create ~seed:33) ~path
          ~mark_probability:prob ~n_packets
      in
      Printf.printf "  p=%-8g packets=%-7d recovered %d/%d routers%s\n" prob n_packets
        (List.length sim.ts_recovered) (List.length path)
        (match sim.ts_packets_needed with
        | Some k -> Printf.sprintf " (full path after %d packets)" k
        | None -> ""))
    [ (0.04, 1000); (0.0005, 10000); (0.00005, 100000) ];

  (* --- 4. random moonwalks ------------------------------------------ *)
  print_endline "\nrandom moonwalks over an epidemic flow graph:";
  (* patient zero n9 infects hosts in waves; walks should concentrate
     at n9. *)
  let rng = Crypto.Rng.create ~seed:34 in
  let flows = ref [] in
  let infected = ref [ "n9" ] in
  for wave = 1 to 6 do
    let newly = ref [] in
    List.iter
      (fun src ->
        for _ = 1 to 2 do
          let dst = Printf.sprintf "h%d" (Crypto.Rng.int rng 40) in
          flows :=
            { Store.Prov_log.fl_src = src; fl_dst = dst; fl_time = float_of_int wave;
              fl_ident = "pkt:worm" }
            :: !flows;
          newly := dst :: !newly
        done)
      !infected;
    infected := !infected @ !newly
  done;
  let ranking =
    Core.Forensics.random_moonwalk (Crypto.Rng.create ~seed:35) ~flows:!flows ~walks:200
      ~max_hops:10
  in
  (match ranking with
  | (top, count) :: _ ->
    Printf.printf "  %d flows, 200 walks; top origin: %s (%d walks) - patient zero was n9\n"
      (List.length !flows) top count
  | [] -> ());
  print_endline "\nforensics example done."
