(* Integration tests for the distributed runtime and the use-case
   layers: correctness of the distributed fixpoint against reference
   algorithms, authentication end to end, the provenance taxonomy
   behaviours (local/distributed, online/offline, sampled, AS
   granularity), traceback, diagnostics, forensics,
   accountability, trust management, and the benchmark metrics. *)

open Engine

let rsa_bits = 384

let mk_runtime ?directory ?(cfg = Core.Config.ndlog) ?(seed = 7) ?(n = 8)
    ?(program = Ndlog.Programs.best_path ()) () =
  let topo = Net.Topology.random (Crypto.Rng.create ~seed) ~n () in
  let cfg = { cfg with Core.Config.rsa_bits } in
  let t =
    Core.Runtime.create ?directory ~rng:(Crypto.Rng.create ~seed:(seed + 1)) ~cfg ~topo
      ~program ()
  in
  (t, topo)

let run_links t =
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t)

(* reference shortest paths *)
let dijkstra_all (topo : Net.Topology.t) =
  let dist = Hashtbl.create 128 in
  List.iter
    (fun src ->
      let d = Hashtbl.create 16 in
      Hashtbl.replace d src 0;
      let visited = Hashtbl.create 16 in
      let rec loop () =
        let best =
          List.fold_left
            (fun acc n ->
              if Hashtbl.mem visited n then acc
              else
                match Hashtbl.find_opt d n with
                | None -> acc
                | Some dn -> (
                  match acc with Some (_, db) when db <= dn -> acc | _ -> Some (n, dn)))
            None topo.nodes
        in
        match best with
        | None -> ()
        | Some (u, du) ->
          Hashtbl.replace visited u ();
          List.iter
            (fun (l : Net.Topology.link) ->
              if l.l_src = u then
                match Hashtbl.find_opt d l.l_dst with
                | Some old when old <= du + l.l_cost -> ()
                | _ -> Hashtbl.replace d l.l_dst (du + l.l_cost))
            topo.links;
          loop ()
      in
      loop ();
      List.iter
        (fun dst ->
          if dst <> src then
            match Hashtbl.find_opt d dst with
            | Some c -> Hashtbl.replace dist (src, dst) c
            | None -> ())
        topo.nodes)
    topo.nodes;
  dist

let best_path_costs t =
  List.filter_map
    (fun (_, tu) ->
      match (Tuple.arg tu 0, Tuple.arg tu 1, Tuple.arg tu 3) with
      | Value.V_str s, Value.V_str d, Value.V_int c -> Some ((s, d), c)
      | _ -> None)
    (Core.Runtime.query_all t "bestPath")

let check_against_dijkstra t topo name =
  let truth = dijkstra_all topo in
  let got = best_path_costs t in
  Alcotest.(check int) (name ^ ": pair count") (Hashtbl.length truth) (List.length got);
  List.iter
    (fun ((s, d), c) ->
      match Hashtbl.find_opt truth (s, d) with
      | Some c' -> Alcotest.(check int) (Printf.sprintf "%s: %s->%s" name s d) c' c
      | None -> Alcotest.failf "%s: unexpected pair %s->%s" name s d)
    got

(* --- distributed correctness ------------------------------------------- *)

let test_distributed_ndlog_correct () =
  let t, topo = mk_runtime () in
  run_links t;
  check_against_dijkstra t topo "ndlog"

let test_distributed_sendlog_correct () =
  let t, topo = mk_runtime ~cfg:Core.Config.sendlog () in
  run_links t;
  check_against_dijkstra t topo "sendlog";
  let st = Core.Runtime.stats t in
  Alcotest.(check int) "every message signed" st.messages st.signatures_generated;
  Alcotest.(check int) "every message verified" st.messages st.signatures_verified;
  Alcotest.(check int) "no failures" 0 st.verification_failures

let test_distributed_sendlogprov_correct () =
  let t, topo = mk_runtime ~cfg:Core.Config.sendlog_prov () in
  run_links t;
  check_against_dijkstra t topo "sendlogprov";
  (* provenance bytes actually shipped *)
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "provenance bytes > per-message flag byte" true
    (st.bytes_provenance > st.messages)

let test_sendlog_program_variant () =
  (* the SeNDlog-with-says Best-Path program computes the same costs *)
  let t, topo = mk_runtime ~cfg:Core.Config.sendlog_prov
      ~program:(Ndlog.Programs.sendlog_best_path ()) ()
  in
  run_links t;
  check_against_dijkstra t topo "sendlog-says-program"

let test_three_configs_agree () =
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:17) ~n:10 () in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:18) ~rsa_bits topo.nodes
  in
  let results =
    List.map
      (fun cfg ->
        let t =
          Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:19)
            ~cfg:{ cfg with Core.Config.rsa_bits } ~topo
            ~program:(Ndlog.Programs.best_path ()) ()
        in
        run_links t;
        List.sort compare (best_path_costs t))
      [ Core.Config.ndlog; Core.Config.sendlog; Core.Config.sendlog_prov ]
  in
  match results with
  | [ a; b; c ] ->
    Alcotest.(check bool) "ndlog = sendlog" true (a = b);
    Alcotest.(check bool) "sendlog = sendlogprov" true (b = c)
  | _ -> assert false

(* --- authentication end to end --------------------------------------------- *)

let test_forged_messages_dropped () =
  (* a sender whose key is not the directory's key for its name: every
     message it signs must be dropped *)
  let topo = Net.Topology.line ~n:3 () in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:31) ~rsa_bits topo.nodes
  in
  (* replace n1's key *after* the directory was distributed: simulate
     by registering a different key under the same name in a second
     directory used only by the sender *)
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:32)
      ~cfg:{ Core.Config.sendlog with rsa_bits } ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  (* corrupt n1's signing key so its signatures no longer match the
     directory's public key *)
  let rogue = Sendlog.Principal.create (Crypto.Rng.create ~seed:33) ~name:"n1" ~rsa_bits () in
  Core.Runtime.replace_principal t ~at:"n1" rogue;
  run_links t;
  Alcotest.(check bool) "forged messages dropped" true (Core.Runtime.dropped_forged t > 0);
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "failures recorded" true (st.verification_failures > 0)

let test_forged_messages_dropped_batched () =
  (* the same adversary on the sharded engine: n0 sits in one AS and
     n1, n2 in another, so the two shards drain concurrently (n2's on a
     pool domain), each handler verifying its own messages as it
     accepts them, and every forged message is still dropped and
     counted *)
  let line = Net.Topology.line ~n:3 () in
  let as_of = Hashtbl.create 3 in
  List.iter (fun (n, a) -> Hashtbl.replace as_of n a) [ ("n0", 0); ("n1", 1); ("n2", 1) ];
  let topo = Net.Topology.validated ~nodes:line.nodes ~links:line.links ~as_of in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:31) ~rsa_bits topo.nodes
  in
  let cfg = Core.Config.with_shards { Core.Config.sendlog with rsa_bits } 0 in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:32) ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  Alcotest.(check int) "two shards" 2 (Core.Runtime.shard_count t);
  let rogue = Sendlog.Principal.create (Crypto.Rng.create ~seed:33) ~name:"n1" ~rsa_bits () in
  Core.Runtime.replace_principal t ~at:"n1" rogue;
  run_links t;
  Alcotest.(check bool) "forged messages dropped" true (Core.Runtime.dropped_forged t > 0);
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "failures recorded" true (st.verification_failures > 0);
  Core.Runtime.shutdown t

let test_forged_retraction_dropped () =
  (* n1 converges with its honest key, then signs with a rogue one and
     loses a link: the retraction notices it sends for tuples it had
     shipped must fail verification at the receivers, which keep the
     tuples the forged notices name. *)
  let topo = Net.Topology.line ~n:3 () in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:31) ~rsa_bits topo.nodes
  in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:32)
      ~cfg:{ Core.Config.sendlog with rsa_bits } ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  run_links t;
  let forged0 = Core.Runtime.dropped_forged t in
  let failures0 = (Core.Runtime.stats t).verification_failures in
  let retracts = ref [] in
  Core.Runtime.set_message_tap t (fun _ msg ->
      if msg.Net.Wire.msg_kind = Net.Wire.K_retract && msg.Net.Wire.msg_src = "n1" then
        retracts := (msg.Net.Wire.msg_dst, msg.Net.Wire.msg_tuple) :: !retracts);
  let rogue = Sendlog.Principal.create (Crypto.Rng.create ~seed:33) ~name:"n1" ~rsa_bits () in
  Core.Runtime.replace_principal t ~at:"n1" rogue;
  Core.Runtime.link_down t ~src:"n1" ~dst:"n2";
  ignore (Core.Runtime.run t);
  Alcotest.(check bool) "n1 sent retraction notices" true (!retracts <> []);
  Alcotest.(check bool) "forged drops rose" true (Core.Runtime.dropped_forged t > forged0);
  Alcotest.(check bool) "verification failures rose" true
    ((Core.Runtime.stats t).verification_failures > failures0);
  Alcotest.(check bool) "a tuple n1 tried to retract survives at its receiver" true
    (List.exists
       (fun (dst, tuple) ->
         List.exists (Tuple.equal tuple) (Core.Runtime.query t ~at:dst tuple.Tuple.rel))
       !retracts)

(* --- provenance taxonomy ------------------------------------------------------ *)

let paper_topology_runtime cfg =
  (* the 3-node Figure 1/2 network running reachability *)
  let topo = Net.Topology.paper_example () in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:41)
      ~cfg:{ cfg with Core.Config.rsa_bits } ~topo
      ~program:(Ndlog.Programs.reachable ()) ()
  in
  List.iter
    (fun (l : Net.Topology.link) ->
      Core.Runtime.install_fact t ~at:l.l_src
        (Tuple.make "link" [ Value.V_str l.l_src; Value.V_str l.l_dst ]))
    topo.links;
  ignore (Core.Runtime.run t);
  t

let reachable_ac = Tuple.make "reachable" [ Value.V_str "a"; Value.V_str "c" ]

let test_paper_example_provenance () =
  let t = paper_topology_runtime Core.Config.sendlog_prov in
  let e = Core.Runtime.provenance_of t ~at:"a" reachable_ac in
  (* the raw expression is a+a*b up to operand order *)
  Alcotest.(check (list string)) "bases" [ "a"; "b" ] (Provenance.Prov_expr.bases e);
  Alcotest.(check int) "two derivations" 2 (Provenance.Prov_expr.count_derivations e);
  Alcotest.(check string) "condensed to <a>" "<a>"
    (Core.Runtime.condensed_annotation t ~at:"a" reachable_ac)

let test_traceback_matches_local_provenance () =
  let t = paper_topology_runtime Core.Config.sendlog_prov in
  let r = Core.Traceback.query t ~at:"a" reachable_ac in
  (* the reconstructed tree's expression has the same derivability *)
  let local = Core.Runtime.provenance_of t ~at:"a" reachable_ac in
  List.iter
    (fun trusted ->
      let env p = List.mem p trusted in
      Alcotest.(check bool)
        (Printf.sprintf "trust {%s}" (String.concat "," trusted))
        (Provenance.Prov_expr.derivable_from local ~trusted:env)
        (Provenance.Prov_expr.derivable_from r.expr ~trusted:env))
    [ [ "a" ]; [ "b" ]; [ "a"; "b" ]; [] ];
  Alcotest.(check bool) "traceback crossed nodes" true (r.cost.remote_queries > 0)

(* Section 4.3: under [sign_provenance] every local derivation carries
   its deriving node's signature over [Store.Prov_log.node_repr] of
   the head and the derivation record traceback reads. *)
let test_signed_provenance_verifies () =
  let t = paper_topology_runtime { Core.Config.sendlog_prov with sign_provenance = true } in
  let directory = Core.Runtime.directory t in
  let auth = (Core.Runtime.config t).Core.Config.auth in
  let verifies ~principal ~node_repr ~signature =
    Sendlog.Auth.verify_provenance_node auth directory ~principal ~node_repr ~signature
  in
  let reprs = ref [] in
  List.iter
    (fun (n : Core.Runtime.node) ->
      List.iter
        (fun (r : Store.Prov_log.record) ->
          List.iter
            (fun (d : Store.Prov_log.deriv) ->
              let node_repr = Store.Prov_log.node_repr r.r_tuple d in
              let what = node_repr ^ " at " ^ n.n_addr in
              reprs := node_repr :: !reprs;
              Alcotest.(check (option string)) (what ^ ": signer") (Some n.n_addr) d.d_signer;
              match d.d_signature with
              | None -> Alcotest.failf "%s: unsigned" what
              | Some signature ->
                Alcotest.(check bool) (what ^ ": verifies") true
                  (verifies ~principal:n.n_addr ~node_repr ~signature);
                let changed =
                  Store.Prov_log.node_repr r.r_tuple { d with d_rule = d.d_rule ^ "'" }
                in
                Alcotest.(check bool) (what ^ ": changed repr rejected") false
                  (verifies ~principal:n.n_addr ~node_repr:changed ~signature))
            r.r_derivs)
        (Core.Prov_store.live_records n.n_prov ~now:0.0))
    (Core.Runtime.nodes t);
  (* every derivation of the run, in the signed format
     head<-rule[body;...] *)
  Alcotest.(check (list string)) "signed derivations"
    [ "r2_mid0(b, a)<-r2_l0[link(a, b)]";
      "r2_mid0(c, a)<-r2_l0[link(a, c)]";
      "r2_mid0(c, b)<-r2_l0[link(b, c)]";
      "reachable(a, b)<-r1[link(a, b)]";
      "reachable(a, c)<-r1[link(a, c)]";
      "reachable(a, c)<-r2_l1[r2_mid0(b, a);reachable(b, c)]";
      "reachable(b, c)<-r1[link(b, c)]" ]
    (List.sort compare !reprs)

let test_distributed_mode_stores_pointers_only () =
  let t = paper_topology_runtime { Core.Config.sendlog_prov with prov = Core.Config.Prov_distributed } in
  let st = Core.Runtime.stats t in
  (* no provenance on the wire in distributed mode *)
  Alcotest.(check int) "prov bytes = flag bytes only" st.messages st.bytes_provenance;
  (* no expression is stored for the derived tuple: its provenance is
     a+a*b, and an expression built from what a holds would read just a *)
  Alcotest.(check string) "no stored expression" "0"
    (Provenance.Prov_expr.canonical_string
       (Core.Runtime.provenance_of t ~at:"a" reachable_ac));
  (* traceback reconstructs the derivation on demand *)
  let r = Core.Traceback.query t ~at:"a" reachable_ac in
  Alcotest.(check (list string)) "origins" [ "a"; "b" ]
    (List.sort compare (Provenance.Prov_expr.bases r.expr))

(* The reactive mode ships nothing beyond each message's flag byte
   across a multi-hop Best-Path network, and every best path can still
   be traced back to the links it came from. *)
let test_reactive_ships_nothing () =
  let cfg = { Core.Config.sendlog_prov with prov = Core.Config.Prov_distributed } in
  let t, _ = mk_runtime ~cfg ~n:8 () in
  run_links t;
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "messages crossed" true (st.messages > 0);
  Alcotest.(check int) "no provenance shipped" st.messages st.bytes_provenance;
  let best = Core.Runtime.query t ~at:"n0" "bestPath" in
  Alcotest.(check bool) "best paths derived" true (best <> []);
  List.iter
    (fun tu ->
      let r = Core.Traceback.query t ~at:"n0" tu in
      Alcotest.(check bool) (Tuple.to_string tu ^ " reconstructable") true
        (Provenance.Prov_expr.bases r.expr <> []))
    best

(* Retirement writes through to the runtime's provenance log, the
   only offline store; [sync_prov_log] is never called, so every
   record counted here is a retirement. *)
let check_retired_to_log t ~rel =
  match Core.Runtime.prov_log t with
  | None -> Alcotest.fail "runtime has no prov log"
  | Some log ->
    Alcotest.(check bool) "offline records kept" true (Store.Prov_log.record_count log > 0);
    Alcotest.(check bool) "searchable" true (Store.Prov_log.idents_of_relation log rel <> [])

let test_offline_store_after_expiry () =
  Test_store.with_temp_dir (fun dir ->
      let topo = Net.Topology.paper_example () in
      let program =
        Ndlog.Parser.parse_program_exn
          ("#ttl reachable 5.\n#ttl link 5.\n" ^ Ndlog.Programs.reachable_src)
      in
      let cfg =
        Core.Config.with_prov_log { Core.Config.sendlog_prov with rsa_bits } (Some dir)
      in
      let t = Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:43) ~cfg ~topo ~program () in
      List.iter
        (fun (l : Net.Topology.link) ->
          Core.Runtime.install_fact t ~at:l.l_src
            (Tuple.make "link" [ Value.V_str l.l_src; Value.V_str l.l_dst ]))
        topo.links;
      ignore (Core.Runtime.run t);
      Alcotest.(check bool) "live before expiry" true
        (Core.Runtime.query_all t "reachable" <> []);
      Core.Runtime.advance t ~seconds:10.0;
      Alcotest.(check (list (pair string string))) "expired" []
        (List.map (fun (a, tu) -> (a, Tuple.to_string tu)) (Core.Runtime.query_all t "reachable"));
      (* offline provenance survives *)
      check_retired_to_log t ~rel:"reachable";
      Core.Runtime.shutdown t)

let test_sampling_reduces_storage () =
  let storage_at k =
    let t, _ = mk_runtime ~cfg:(Core.Config.with_prov_sample Core.Config.sendlog_prov k) ~n:10 () in
    run_links t;
    (Core.Runtime.total_storage t).st_online_expr_bytes
  in
  let full = storage_at 1 and tenth = storage_at 10 in
  Alcotest.(check bool)
    (Printf.sprintf "10%% sampling smaller (%d vs %d)" tenth full)
    true
    (tenth < full / 2)

let test_as_granularity () =
  let t, topo = mk_runtime ~cfg:{ Core.Config.sendlog_prov with granularity = Core.Config.As_level } ~n:20 () in
  run_links t;
  ignore topo;
  (* all provenance keys are AS identifiers *)
  let keys =
    List.concat_map
      (fun (at, tu) -> Provenance.Prov_expr.bases (Core.Runtime.provenance_of t ~at tu))
      (Core.Runtime.query_all t "bestPath")
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "keys are ASes" true
    (keys <> [] && List.for_all (fun k -> String.length k >= 3 && String.sub k 0 2 = "as") keys);
  (* AS-level keys are coarser than node-level ones *)
  Alcotest.(check bool) "coarser than nodes" true (List.length keys < 20)

(* --- use cases ------------------------------------------------------------------ *)

let test_diagnostics_alarm_threshold () =
  let topo = Net.Topology.ring ~n:4 () in
  let monitor = Core.Diagnostics.monitor_program ~window_seconds:10.0 ~threshold:3 in
  let cfg = { Core.Config.ndlog with rsa_bits } in
  let t = Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:51) ~cfg ~topo ~program:monitor () in
  for _ = 1 to 3 do
    Core.Diagnostics.report_change t ~node:"n0" ~dest:"d";
    Core.Runtime.advance t ~seconds:1.0
  done;
  Core.Diagnostics.report_change t ~node:"n1" ~dest:"d";
  ignore (Core.Runtime.run t);
  let alarms = Core.Diagnostics.alarms t in
  Alcotest.(check int) "one alarm" 1 (List.length alarms);
  let al = List.hd alarms in
  Alcotest.(check string) "at n0" "n0" al.al_node;
  Alcotest.(check int) "three changes" 3 al.al_changes

let test_diagnostics_window_expires () =
  let topo = Net.Topology.ring ~n:3 () in
  let monitor = Core.Diagnostics.monitor_program ~window_seconds:5.0 ~threshold:2 in
  let cfg = { Core.Config.ndlog with rsa_bits } in
  let t = Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:52) ~cfg ~topo ~program:monitor () in
  Core.Diagnostics.report_change t ~node:"n0" ~dest:"d";
  Core.Runtime.advance t ~seconds:8.0;
  (* first event expired; a second event should not trip threshold 2 *)
  Core.Diagnostics.report_change t ~node:"n0" ~dest:"d";
  ignore (Core.Runtime.run t);
  Alcotest.(check int) "no alarm" 0 (List.length (Core.Diagnostics.alarms t))

let test_purge_suspect () =
  let t, _ = mk_runtime ~cfg:Core.Config.sendlog_prov ~n:6 () in
  run_links t;
  let at = "n0" in
  let deleted = Core.Traceback.purge_suspect t ~at ~suspect:"n2" in
  Alcotest.(check bool) "something deleted" true (deleted <> []);
  (* no remaining tuple at n0 depends on n2 *)
  List.iter
    (fun tu ->
      let e = Core.Runtime.provenance_of t ~at tu in
      Alcotest.(check bool) "clean" false
        (List.mem "n2" (Provenance.Prov_expr.bases e)))
    (Core.Runtime.query t ~at "bestPath")

let test_accountability_ledger () =
  let t, _ = mk_runtime ~cfg:Core.Config.sendlog ~n:6 () in
  let ledger = Core.Accountability.create_ledger () in
  Core.Runtime.set_message_tap t (fun time msg -> Core.Accountability.record ledger ~time msg);
  run_links t;
  let st = Core.Runtime.stats t in
  let usage = Core.Accountability.usage ledger in
  Alcotest.(check int) "ledger covers all bytes" st.bytes_total
    (List.fold_left (fun acc (_, b) -> acc + b) 0 usage);
  Alcotest.(check bool) "every record authenticated" true
    (List.for_all (fun (r : Core.Accountability.flow_record) -> r.fr_authenticated)
       (Core.Accountability.call_detail ledger ~principal:(fst (List.hd usage)) ()));
  (* billing is monotone in usage for a flat rate *)
  let bill = Core.Accountability.bill ledger ~rate:(fun _ -> 1.0) in
  Alcotest.(check (float 0.01)) "flat rate = bytes"
    (float_of_int (snd (List.hd usage)))
    (snd (List.hd bill))

let test_accountability_unattributed () =
  let t, _ = mk_runtime ~cfg:Core.Config.ndlog ~n:4 () in
  let ledger = Core.Accountability.create_ledger () in
  Core.Runtime.set_message_tap t (fun time msg -> Core.Accountability.record ledger ~time msg);
  run_links t;
  Alcotest.(check (list (pair string int))) "no attributed records" []
    (Core.Accountability.usage ledger);
  Alcotest.(check bool) "bytes counted as unattributed" true (ledger.unattributed_bytes > 0)

let test_trust_gate_on_runtime () =
  let t, topo = mk_runtime ~cfg:Core.Config.sendlog_prov ~n:6 () in
  run_links t;
  let at = "n0" in
  let all = Core.Trust_mgmt.create_gate (Trusted_set topo.nodes) in
  let ds = Core.Trust_mgmt.audit_relation all t ~at "bestPath" in
  Alcotest.(check int) "trusting everyone accepts all" (List.length ds)
    (Core.Trust_mgmt.accepted all);
  let none = Core.Trust_mgmt.create_gate (Trusted_set []) in
  let ds2 = Core.Trust_mgmt.audit_relation none t ~at "bestPath" in
  Alcotest.(check int) "trusting no one rejects all" (List.length ds2)
    (Core.Trust_mgmt.rejected none)

let test_forensics_bloom_path_query () =
  Test_store.with_temp_dir (fun dir ->
      let log =
        Store.Prov_log.open_log ~epoch_seconds:60.0 ~digest_expected:100
          ~digest_fp_rate:0.001 ~dir ()
      in
      List.iter
        (fun node -> Store.Prov_log.record_digest log ~node ~time:5.0 "pkt-x")
        [ "r1"; "r2"; "r3" ];
      Store.Prov_log.record_digest log ~node:"r9" ~time:5.0 "other";
      let hits = Store.Prov_log.digest_nodes log ~time:5.0 "pkt-x" in
      List.iter (fun r -> Alcotest.(check bool) r true (List.mem r hits)) [ "r1"; "r2"; "r3" ];
      (* epoch isolation *)
      Alcotest.(check (list string)) "different epoch empty" []
        (Store.Prov_log.digest_nodes log ~time:500.0 "pkt-x");
      Store.Prov_log.close log)

let test_forensics_sampling_recovers_path () =
  let sim =
    Core.Forensics.simulate_traceback (Crypto.Rng.create ~seed:61)
      ~path:[ "a"; "b"; "c" ] ~mark_probability:0.05 ~n_packets:2000
  in
  Alcotest.(check bool) "complete" true sim.ts_complete;
  Alcotest.(check (list string)) "all routers" [ "a"; "b"; "c" ] sim.ts_recovered;
  (* ludicrously low probability with few packets fails *)
  let sim2 =
    Core.Forensics.simulate_traceback (Crypto.Rng.create ~seed:62)
      ~path:[ "a"; "b"; "c" ] ~mark_probability:0.00001 ~n_packets:100
  in
  Alcotest.(check bool) "incomplete" false sim2.ts_complete

let test_forensics_moonwalk_finds_origin () =
  (* star burst: n0 sends to many, which each forward once *)
  let flows =
    List.concat_map
      (fun i ->
        let mid = Printf.sprintf "m%d" i in
        [ { Store.Prov_log.fl_src = "origin"; fl_dst = mid; fl_time = 1.0; fl_ident = "x" };
          { Store.Prov_log.fl_src = mid; fl_dst = Printf.sprintf "leaf%d" i; fl_time = 2.0;
            fl_ident = "x" } ])
      (List.init 10 Fun.id)
  in
  match Core.Forensics.random_moonwalk (Crypto.Rng.create ~seed:63) ~flows ~walks:100 ~max_hops:5 with
  | (top, _) :: _ -> Alcotest.(check string) "origin found" "origin" top
  | [] -> Alcotest.fail "no walks"

(* --- metrics ------------------------------------------------------------------- *)

let fake_points =
  (* a synthetic sweep with the paper's qualitative shape *)
  let mk config n wall mb =
    { Core.Bestpath_workload.p_config = config; p_n = n; p_wall_seconds = wall;
      p_wall_stddev = 0.0; p_sim_seconds = wall; p_sim_stddev = 0.0;
      p_megabytes = mb; p_mb_stddev = 0.0; p_messages = 0; p_signatures = 0;
      p_verif_failures = 0; p_dropped_forged = 0; p_best_paths = 0 }
  in
  [ mk "NDLog" 10 1.0 1.0; mk "SeNDLog" 10 1.6 1.5; mk "SeNDLogProv" 10 2.2 2.3;
    mk "NDLog" 100 10.0 10.0; mk "SeNDLog" 100 14.0 12.0; mk "SeNDLogProv" 100 15.0 13.5 ]

let test_metrics_overheads () =
  (match Core.Metrics.overhead fake_points ~base:"NDLog" ~variant:"SeNDLog" with
  | Some o ->
    Alcotest.(check (float 0.1)) "avg time pct" 50.0 o.ov_avg_time_pct;
    Alcotest.(check (float 0.1)) "at max n" 40.0 o.ov_at_max_n_time_pct;
    Alcotest.(check int) "max n" 100 o.ov_max_n
  | None -> Alcotest.fail "expected overhead");
  Alcotest.(check bool) "missing config" true
    (Core.Metrics.overhead fake_points ~base:"NDLog" ~variant:"Nope" = None)

let test_metrics_shape_checks () =
  Alcotest.(check bool) "ordering holds" true
    (Core.Metrics.ordering_holds fake_points ~metric:(fun p -> p.p_wall_seconds));
  Alcotest.(check bool) "overhead decreases" true
    (Core.Metrics.overhead_decreases fake_points ~base:"NDLog" ~variant:"SeNDLog"
       ~metric:(fun p -> p.p_wall_seconds));
  let table =
    Core.Metrics.figure_table fake_points ~metric:(fun p -> p.p_wall_seconds) ~title:"T"
  in
  Alcotest.(check bool) "table mentions sizes" true
    (String.length table > 0 && String.contains table '1')

(* --- cost model ------------------------------------------------------------------- *)

let test_virtual_clock_monotone_in_costs () =
  (* doubling the per-message cost increases completion time *)
  let run per_message =
    let cfg =
      { Core.Config.ndlog with
        rsa_bits;
        cost_model = { Core.Config.default_cost_model with per_message_seconds = per_message } }
    in
    let t, _ = mk_runtime ~cfg ~n:6 () in
    Core.Runtime.install_links t;
    (Core.Runtime.run t).sim_seconds
  in
  let slow = run 0.02 and fast = run 0.002 in
  Alcotest.(check bool) (Printf.sprintf "%.3f > %.3f" slow fast) true (slow > fast)

(* --- fault injection and reliable delivery ------------------------------- *)

(* The deterministic part of the Best-Path fixpoint: the witness path
   inside bestPath can tie-break differently across orderings, the
   minimum costs cannot. *)
let cost_fixpoint t =
  List.sort_uniq compare
    (List.map
       (fun (at, tu) -> at ^ "|" ^ Tuple.to_string tu)
       (Core.Runtime.query_all t "bestPathCost"))

let faulty_cfg ?(base = Core.Config.ndlog) ?(loss = 0.2) ?(dup = 0.05)
    ?(fault_seed = 99) ?crash ~reliable () =
  let c = Core.Config.with_loss base loss in
  let c = Core.Config.with_dup c dup in
  let c = Core.Config.with_fault_seed c fault_seed in
  let c = match crash with Some cr -> Core.Config.with_crash c cr | None -> c in
  Core.Config.with_reliable c reliable

let test_faulty_runs_reproducible () =
  (* two runs with identical seeds agree on the final fixpoint and on
     the fault layer engaging: per-message verdicts are pinned by the
     fault seed (hashed per message), not by event interleaving *)
  let crash = { Net.Fault.cr_node = "n2"; cr_at = 0.05; cr_restart = Some 0.15 } in
  let measure () =
    let t, _ = mk_runtime ~cfg:(faulty_cfg ~crash ~reliable:true ()) ~n:6 () in
    run_links t;
    let st = Core.Runtime.stats t in
    ( cost_fixpoint t,
      List.length (Core.Runtime.query_all t "bestPath"),
      st.Net.Stats.drops > 0,
      st.Net.Stats.retransmits > 0 )
  in
  let fp1, n1, engaged1, retrans1 = measure () in
  let fp2, n2, engaged2, retrans2 = measure () in
  Alcotest.(check (list string)) "fixpoints identical" fp1 fp2;
  Alcotest.(check int) "bestPath cardinality identical" n1 n2;
  Alcotest.(check bool) "faults engaged both runs" true (engaged1 && engaged2);
  Alcotest.(check bool) "retransmissions both runs" true (retrans1 && retrans2)

let test_reliable_converges_to_fault_free () =
  (* 20% loss, 5% duplication, one mid-run crash-and-restart: with the
     reliable layer on, the distributed fixpoint must be exactly the
     fault-free one *)
  let t0, _ = mk_runtime ~n:6 () in
  run_links t0;
  let baseline = cost_fixpoint t0 in
  let crash = { Net.Fault.cr_node = "n1"; cr_at = 0.05; cr_restart = Some 0.15 } in
  let t, _ = mk_runtime ~cfg:(faulty_cfg ~crash ~reliable:true ()) ~n:6 () in
  run_links t;
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "losses occurred" true (st.Net.Stats.drops > 0);
  Alcotest.(check bool) "duplicates occurred" true (st.Net.Stats.dups > 0);
  Alcotest.(check bool) "ACKs flowed" true (st.Net.Stats.acks > 0);
  Alcotest.(check int) "no send abandoned" 0 st.Net.Stats.retry_exhausted;
  Alcotest.(check (list string)) "fault-free fixpoint reached" baseline (cost_fixpoint t)

let test_backoff_cap_bounds_completion () =
  (* The retransmission backoff cap (Config.max_backoff, 2 s by
     default) keeps a lossy run with a mid-run crash converging in
     seconds: under the cap the run reaches the fault-free fixpoint
     without abandoning a send, and it finishes at least one capped
     interval sooner in virtual time than the same run with the cap
     lifted (virtual time folds in measured CPU time, so equal runs
     differ by a few microseconds).  Topology and runtime draw from one
     RNG, as [psn run -n 8 --seed 2028] does. *)
  let run cfg =
    let rng = Crypto.Rng.create ~seed:2028 in
    let topo = Net.Topology.random rng ~n:8 () in
    let t =
      Core.Runtime.create ~rng ~cfg:{ cfg with Core.Config.rsa_bits } ~topo
        ~program:(Ndlog.Programs.best_path ()) ()
    in
    Core.Runtime.install_links t;
    (t, (Core.Runtime.run t).Core.Runtime.sim_seconds)
  in
  let t0, _ = run Core.Config.ndlog in
  let crash = Result.get_ok (Net.Fault.crash_of_string "n1@0.1+0.1") in
  let cfg = faulty_cfg ~fault_seed:2028 ~crash ~reliable:true () in
  let capped, capped_sim = run cfg in
  let _, uncapped_sim = run (Core.Config.with_max_backoff cfg 1e6) in
  Alcotest.(check int) "no send abandoned" 0
    (Core.Runtime.stats capped).Net.Stats.retry_exhausted;
  Alcotest.(check (list string)) "fault-free fixpoint reached" (cost_fixpoint t0)
    (cost_fixpoint capped);
  Alcotest.(check bool)
    (Printf.sprintf "capped %.2fs + one cap < uncapped %.2fs virtual" capped_sim
       uncapped_sim)
    true
    (capped_sim +. cfg.Core.Config.max_backoff < uncapped_sim)

let test_crash_leaves_completion () =
  (* n7 fails at 50 s, long after the N=8 fixpoint (about 0.5 s
     virtual): nothing is sent after the network goes quiet, so the
     run completes then, and the crash gauge reads the schedule at
     that time *)
  let crash = { Net.Fault.cr_node = "n7"; cr_at = 50.0; cr_restart = None } in
  let cfg = Core.Config.with_crash (Core.Config.with_reliable Core.Config.ndlog true) crash in
  let t, _ = mk_runtime ~cfg ~n:8 () in
  Core.Runtime.install_links t;
  let r = Core.Runtime.run t in
  Alcotest.(check bool)
    (Printf.sprintf "completes at %.3fs virtual, before 1s" r.Core.Runtime.sim_seconds)
    true (r.Core.Runtime.sim_seconds < 1.0);
  Alcotest.(check (float 1e-9)) "n7 not yet down" 0.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge Obs.Metrics.default "sim.crashed_nodes"))

let test_retransmits_reuse_signatures () =
  (* RSA-authenticated run under loss: retransmitted copies carry the
     original signature (signed bytes exclude the sequence number), so
     receivers verify them without any re-signing and without forgery
     drops *)
  let t0, _ = mk_runtime ~cfg:Core.Config.sendlog ~n:5 () in
  run_links t0;
  let baseline = cost_fixpoint t0 in
  let t, _ =
    mk_runtime ~cfg:(faulty_cfg ~base:Core.Config.sendlog ~reliable:true ()) ~n:5 ()
  in
  run_links t;
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "retransmissions happened" true (st.Net.Stats.retransmits > 0);
  (* every wire message is an original signed send, a signature-reusing
     retransmit, or an unauthenticated ACK: exact accounting shows no
     signature was generated for a retransmitted copy *)
  Alcotest.(check int) "signatures only for original sends" st.Net.Stats.messages
    (st.Net.Stats.signatures_generated + st.Net.Stats.retransmits + st.Net.Stats.acks);
  Alcotest.(check int) "no forged drops" 0 st.Net.Stats.dropped_forged;
  Alcotest.(check int) "no verification failures" 0 st.Net.Stats.verification_failures;
  Alcotest.(check (list string)) "fault-free fixpoint reached" baseline (cost_fixpoint t)

let test_traceback_partial_across_crashed_node () =
  (* node b fails (forever) after the fixpoint completes; tracing
     reachable(a,c) from a crosses b, so the derivation tree degrades
     to an explicit Unreachable stub instead of raising *)
  let topo = Net.Topology.paper_example () in
  let cfg =
    Core.Config.with_crash
      { Core.Config.sendlog_prov with rsa_bits; prov = Core.Config.Prov_distributed }
      { Net.Fault.cr_node = "b"; cr_at = 100.0; cr_restart = None }
  in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:41) ~cfg ~topo
      ~program:(Ndlog.Programs.reachable ()) ()
  in
  List.iter
    (fun (l : Net.Topology.link) ->
      Core.Runtime.install_fact t ~at:l.l_src
        (Tuple.make "link" [ Value.V_str l.l_src; Value.V_str l.l_dst ]))
    topo.links;
  ignore (Core.Runtime.run t);
  (* the fixpoint completes long before the crash: carry the clock past it *)
  Core.Runtime.advance t ~seconds:100.0;
  Alcotest.(check bool) "b is down at query time" true (Core.Runtime.is_node_down t "b");
  Alcotest.(check (float 1e-9)) "crash gauge tracks the outage" 1.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge Obs.Metrics.default "sim.crashed_nodes"));
  let r = Core.Traceback.query t ~at:"a" reachable_ac in
  Alcotest.(check bool) "result is partial" true r.partial;
  Alcotest.(check (list string)) "unreachable stub names b" [ "b" ]
    (List.sort_uniq compare (Provenance.Derivation.unreachable_leaves r.tree));
  (* the reachable part of the tree still attributes to a *)
  Alcotest.(check bool) "a still attributed" true
    (List.mem "a" (Provenance.Prov_expr.bases r.expr));
  (* healthy control: the same query without the crash is complete *)
  let t2 =
    paper_topology_runtime
      { Core.Config.sendlog_prov with prov = Core.Config.Prov_distributed }
  in
  let r2 = Core.Traceback.query t2 ~at:"a" reachable_ac in
  Alcotest.(check bool) "complete without crash" false r2.partial;
  Alcotest.(check (list string)) "no stubs without crash" []
    (Provenance.Derivation.unreachable_leaves r2.tree)

(* --- causal tracing, profiler, security events, regression gate ----------- *)

let test_tracing_identical_fixpoint () =
  (* The trace context rides outside the modeled message size, so a
     traced run must produce byte-identical results to an untraced
     one: same virtual timeline, same tie resolution, same fixpoint. *)
  let measure trace =
    let t, _ = mk_runtime ~cfg:Core.Config.sendlog ~n:6 () in
    if trace then ignore (Core.Runtime.enable_tracing t);
    run_links t;
    let r = (cost_fixpoint t, List.length (Core.Runtime.query_all t "bestPath")) in
    Core.Runtime.shutdown t;
    r
  in
  let fp_plain, n_plain = measure false in
  let fp_traced, n_traced = measure true in
  Alcotest.(check (list string)) "fixpoint identical under tracing" fp_plain fp_traced;
  Alcotest.(check int) "bestPath cardinality identical" n_plain n_traced

let test_cross_node_trace_links () =
  let t, _ = mk_runtime ~n:5 () in
  let tr = Core.Runtime.enable_tracing t in
  run_links t;
  let spans = Obs.Trace.finished_spans tr in
  let handles = List.filter (fun s -> s.Obs.Trace.sp_name = "handle") spans in
  Alcotest.(check bool) "handle spans recorded" true (handles <> []);
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.Trace.sp_id s) spans;
  let node_of s = List.assoc_opt "node" s.Obs.Trace.sp_attrs in
  (* The tentpole property: receive handlers parent under the *sending*
     node's span, so the trace stitches the causal chain across nodes. *)
  let cross_node =
    List.filter
      (fun s ->
        match s.Obs.Trace.sp_parent with
        | Some p -> (
          match Hashtbl.find_opt by_id p with
          | Some parent -> node_of parent <> None && node_of parent <> node_of s
          | None -> false)
        | None -> false)
      handles
  in
  Alcotest.(check bool) "cross-node parent links present" true (cross_node <> []);
  (* ...and the Chrome export draws one flow arrow per cross-*track*
     link (a track per node, plus the unattributed run lane). *)
  let cross_track =
    List.filter
      (fun s ->
        match s.Obs.Trace.sp_parent with
        | Some p -> (
          match Hashtbl.find_opt by_id p with
          | Some parent -> node_of parent <> node_of s
          | None -> false)
        | None -> false)
      spans
  in
  let j = Obs.Json.parse (Obs.Export.chrome_trace tr) in
  (match Obs.Json.member "traceEvents" j with
  | Some (Obs.Json.List events) ->
    let count ph =
      List.length
        (List.filter
           (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt = Some ph)
           events)
    in
    Alcotest.(check int) "one flow pair per cross-track link"
      (List.length cross_track) (count "s");
    Alcotest.(check int) "flow starts match finishes" (count "s") (count "f")
  | _ -> Alcotest.fail "chrome export has no traceEvents")

(* A node has one CPU: everything that reaches it (messages, fact
   installs and retractions) waits in one receive queue and runs as one
   handler once the CPU is free, so no two of a node's handle spans
   overlap.  Link flaps retract and reinstall facts at nodes that are
   often still busy, which is where work that skipped the queue would
   start a second handler. *)
let test_one_handler_at_a_time () =
  let cfg = Core.Config.with_fault_seed Core.Config.sendlog 2008 in
  let t, _ = mk_runtime ~cfg ~n:8 ~seed:2008 () in
  let tr = Core.Runtime.enable_tracing t in
  run_links t;
  ignore (Core.Runtime.schedule_flaps t ~rate:1.0 ~horizon:2.0 ());
  ignore (Core.Runtime.run t);
  Core.Runtime.shutdown t;
  Alcotest.(check int) "no span dropped" 0 (Obs.Trace.dropped tr);
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      match List.assoc_opt "node" s.sp_attrs with
      | Some node when s.sp_name = "handle" ->
        let spans = Option.value (Hashtbl.find_opt by_node node) ~default:[] in
        Hashtbl.replace by_node node ((s.sp_start, s.sp_start +. s.sp_dur) :: spans)
      | Some _ | None -> ())
    (Obs.Trace.finished_spans tr);
  Alcotest.(check int) "every node handled work" 8 (Hashtbl.length by_node);
  Hashtbl.iter
    (fun node spans ->
      ignore
        (List.fold_left
           (fun busy_until (start, stop) ->
             if start < busy_until -. 1e-9 then
               Alcotest.failf "%s starts a handler at %.9f while busy until %.9f" node
                 start busy_until;
             Float.max busy_until stop)
           Float.neg_infinity (List.sort compare spans)))
    by_node

let test_traced_parallel_engine () =
  (* The tracer is shared by the sharded engine's worker domains; a
     traced run with one shard per AS (N = 20 spans two) must complete,
     record spans, and agree with the one-shard fixpoint. *)
  let t0, _ = mk_runtime ~n:20 () in
  run_links t0;
  let baseline = cost_fixpoint t0 in
  let t, _ = mk_runtime ~cfg:(Core.Config.with_shards Core.Config.ndlog 0) ~n:20 () in
  let tr = Core.Runtime.enable_tracing t in
  run_links t;
  Alcotest.(check int) "two shards" 2 (Core.Runtime.shard_count t);
  Alcotest.(check (list string)) "parallel traced fixpoint matches" baseline
    (cost_fixpoint t);
  Alcotest.(check bool) "spans recorded on two shards" true
    (Obs.Trace.finished_spans tr <> []);
  Core.Runtime.shutdown t

let test_per_rule_profiler_series () =
  Obs.Metrics.reset Obs.Metrics.default;
  let t, _ = mk_runtime ~n:6 () in
  run_links t;
  (* The evaluator flushes per-rule time/rounds/derivations as labeled
     series; every rule of the Best-Path program must show up with
     rounds > 0, and rule seconds must be recorded as histograms. *)
  let j = Obs.Metrics.to_json Obs.Metrics.default in
  let metrics =
    match Obs.Json.member "metrics" j with Some (Obs.Json.List l) -> l | _ -> []
  in
  let named name =
    List.filter
      (fun m -> Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt = Some name)
      metrics
  in
  let rounds = named "eval.rule_rounds" in
  Alcotest.(check bool) "per-rule rounds series exist" true (rounds <> []);
  List.iter
    (fun m ->
      match Option.bind (Obs.Json.member "labels" m) (Obs.Json.member "rule") with
      | Some (Obs.Json.Str _) -> ()
      | _ -> Alcotest.fail "rule series missing rule label")
    rounds;
  (* The registry keeps zeroed series from other tests' programs after
     a reset, so require positive counts to *exist*, not universally. *)
  Alcotest.(check bool) "this run's rules have positive rounds" true
    (List.exists
       (fun m ->
         match Option.bind (Obs.Json.member "value" m) Obs.Json.to_int_opt with
         | Some v -> v > 0
         | None -> false)
       rounds);
  let seconds = named "eval.rule_seconds" in
  Alcotest.(check bool) "per-rule seconds histograms exist" true (seconds <> []);
  Alcotest.(check bool) "derivations attributed to rules" true
    (named "eval.rule_derivations" <> [])

let test_security_events_emitted () =
  (* Forged traffic: the event log must carry forged_dropped entries
     naming the receiving node. *)
  let topo = Net.Topology.line ~n:3 () in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:31) ~rsa_bits topo.nodes
  in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:32)
      ~cfg:{ Core.Config.sendlog with rsa_bits } ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  let rogue = Sendlog.Principal.create (Crypto.Rng.create ~seed:33) ~name:"n1" ~rsa_bits () in
  Core.Runtime.replace_principal t ~at:"n1" rogue;
  run_links t;
  let events = List.map (fun e -> e.Obs.Events.en_event) (Obs.Events.to_list (Core.Runtime.event_log t)) in
  Alcotest.(check bool) "forged_dropped emitted" true
    (List.exists (function Obs.Events.E_forged_dropped _ -> true | _ -> false) events)

(* The event ring holds what counters cannot say: with routine traffic
   kept out of it, an N=20 run with a rogue signer keeps one
   forged_dropped entry for every message it dropped as forged. *)
let test_forged_drops_kept_in_event_log () =
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:2008) ~n:20 () in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:31) ~rsa_bits topo.nodes
  in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:32)
      ~cfg:{ Core.Config.sendlog with rsa_bits } ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  let rogue = Sendlog.Principal.create (Crypto.Rng.create ~seed:33) ~name:"n1" ~rsa_bits () in
  Core.Runtime.replace_principal t ~at:"n1" rogue;
  run_links t;
  let forged_events =
    List.length
      (List.filter
         (fun e ->
           match e.Obs.Events.en_event with Obs.Events.E_forged_dropped _ -> true | _ -> false)
         (Obs.Events.to_list (Core.Runtime.event_log t)))
  in
  Alcotest.(check bool) "forged messages dropped" true (Core.Runtime.dropped_forged t > 0);
  Alcotest.(check int) "one forged_dropped event per drop" (Core.Runtime.dropped_forged t)
    forged_events

let test_retry_exhausted_event () =
  (* Total loss with a tiny retry budget: reliable delivery gives up
     and must say so in the event log, not just in a counter. *)
  let cfg =
    Core.Config.with_retry (faulty_cfg ~loss:1.0 ~dup:0.0 ~reliable:true ()) ~limit:2
      ~ack_timeout:0.05 ()
  in
  let t, _ = mk_runtime ~cfg ~n:4 () in
  run_links t;
  let st = Core.Runtime.stats t in
  Alcotest.(check bool) "sends abandoned" true (st.Net.Stats.retry_exhausted > 0);
  let exhausted =
    List.filter
      (fun e ->
        match e.Obs.Events.en_event with
        | Obs.Events.E_custom { kind = "retry_exhausted"; _ } -> true
        | _ -> false)
      (Obs.Events.to_list (Core.Runtime.event_log t))
  in
  Alcotest.(check bool) "retry_exhausted events emitted" true (exhausted <> []);
  List.iter
    (fun e ->
      match e.Obs.Events.en_event with
      | Obs.Events.E_custom { attrs; _ } ->
        Alcotest.(check bool) "reason attribute present" true
          (List.mem_assoc "reason" attrs && List.mem_assoc "dst" attrs)
      | _ -> ())
    exhausted

let test_critical_path_semantics () =
  let open Provenance.Derivation in
  let leaf created tuple = Leaf { tuple; ann = annot ~created "a" } in
  let fast = leaf 1.0 "fast" in
  let slow = leaf 5.0 "slow" in
  let rule =
    Rule { rule = "r"; tuple = "out"; ann = annot ~created:2.0 "a";
           children = [ fast; slow ] }
  in
  (* A rule completes at its slowest input; the path goes through it. *)
  Alcotest.(check (float 1e-9)) "rule completion = slowest child" 5.0 (completion rule);
  (match critical_path rule with
  | [ r; s ] ->
    Alcotest.(check bool) "path starts at root" true (r == rule);
    Alcotest.(check bool) "path ends at slow leaf" true (s == slow)
  | p -> Alcotest.failf "expected 2-node path, got %d" (List.length p));
  (* A union completes at its *earliest* alternative. *)
  let alt = leaf 0.5 "alt" in
  let union = Union { tuple = "out"; location = "a"; alternatives = [ rule; alt ] } in
  Alcotest.(check (float 1e-9)) "union completion = earliest alternative" 0.5
    (completion union);
  (match critical_path union with
  | [ u; a ] ->
    Alcotest.(check bool) "union root" true (u == union);
    Alcotest.(check bool) "earliest alternative chosen" true (a == alt)
  | p -> Alcotest.failf "expected 2-node union path, got %d" (List.length p));
  (* Unreachable stubs never inflate the path. *)
  let stub = Unreachable { tuple = "x"; location = "b" } in
  Alcotest.(check (float 1e-9)) "stub contributes nothing" 0.0 (completion stub);
  (* Rendering marks the path and stamps every node. *)
  let s = to_latency_string union in
  Alcotest.(check bool) "latency tree marks the path" true
    (String.length s > 0 && String.contains s '*');
  Alcotest.(check bool) "latency tree stamps times" true
    (let needle = "t=5.000000" in
     let nl = String.length needle and tl = String.length s in
     let rec go i = i + nl <= tl && (String.sub s i nl = needle || go (i + 1)) in
     go 0)

let test_traceback_latency_view () =
  (* End to end: a real traceback's tree carries virtual-clock stamps,
     so it has a positive completion time and a non-empty critical
     path ending in the latency rendering. *)
  let t = paper_topology_runtime Core.Config.sendlog_prov in
  let r = Core.Traceback.query t ~at:"a" reachable_ac in
  (* reachable(a,c) also derives locally from link(a,c) at t=0, and a
     union completes at its earliest alternative — so the completion
     time is 0.0 here; what must hold is that it is finite and the
     path/rendering are well-formed. *)
  Alcotest.(check bool) "completion time finite and non-negative" true
    (let ct = Core.Traceback.completion_time r in
     Float.is_finite ct && ct >= 0.0);
  Alcotest.(check bool) "critical path non-empty" true
    (Core.Traceback.critical_path r <> []);
  let s = Core.Traceback.latency_tree r in
  Alcotest.(check bool) "latency tree renders" true (String.length s > 0);
  (* The transitive alternative (via b) did wait on the network: some
     node of the tree completes strictly later than the union root. *)
  let rec max_completion d =
    let open Provenance.Derivation in
    match d with
    | Leaf { ann; _ } -> ann.a_created
    | Rule { ann; children; _ } ->
      List.fold_left (fun acc c -> Float.max acc (max_completion c)) ann.a_created children
    | Union { alternatives; _ } ->
      List.fold_left (fun acc c -> Float.max acc (max_completion c)) 0.0 alternatives
    | Unreachable _ | Shared _ -> 0.0
  in
  Alcotest.(check bool) "a later alternative exists in the tree" true
    (max_completion r.Core.Traceback.tree > Core.Traceback.completion_time r)

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "distributed NDlog = dijkstra" `Quick test_distributed_ndlog_correct;
    Alcotest.test_case "distributed SeNDlog = dijkstra" `Quick test_distributed_sendlog_correct;
    Alcotest.test_case "distributed SeNDlogProv = dijkstra" `Quick test_distributed_sendlogprov_correct;
    Alcotest.test_case "says-program variant" `Quick test_sendlog_program_variant;
    Alcotest.test_case "three configs agree" `Quick test_three_configs_agree;
    Alcotest.test_case "forged messages dropped" `Quick test_forged_messages_dropped;
    Alcotest.test_case "forged retraction notices dropped" `Quick
      test_forged_retraction_dropped;
    Alcotest.test_case "forged messages dropped (batched verify)" `Quick
      test_forged_messages_dropped_batched;
    Alcotest.test_case "paper example provenance" `Quick test_paper_example_provenance;
    Alcotest.test_case "traceback = local provenance" `Quick test_traceback_matches_local_provenance;
    Alcotest.test_case "distributed mode: pointers only" `Quick test_distributed_mode_stores_pointers_only;
    Alcotest.test_case "reactive ships nothing" `Quick test_reactive_ships_nothing;
    Alcotest.test_case "offline store after expiry" `Quick test_offline_store_after_expiry;
    Alcotest.test_case "sampling reduces storage" `Quick test_sampling_reduces_storage;
    Alcotest.test_case "AS granularity" `Quick test_as_granularity;
    Alcotest.test_case "diagnostics alarm" `Quick test_diagnostics_alarm_threshold;
    Alcotest.test_case "diagnostics window expiry" `Quick test_diagnostics_window_expires;
    Alcotest.test_case "purge suspect" `Quick test_purge_suspect;
    Alcotest.test_case "accountability ledger" `Quick test_accountability_ledger;
    Alcotest.test_case "accountability unattributed" `Quick test_accountability_unattributed;
    Alcotest.test_case "trust gate" `Quick test_trust_gate_on_runtime;
    Alcotest.test_case "forensics bloom query" `Quick test_forensics_bloom_path_query;
    Alcotest.test_case "forensics sampling" `Quick test_forensics_sampling_recovers_path;
    Alcotest.test_case "forensics moonwalk" `Quick test_forensics_moonwalk_finds_origin;
    Alcotest.test_case "metrics overheads" `Quick test_metrics_overheads;
    Alcotest.test_case "metrics shape checks" `Quick test_metrics_shape_checks;
    Alcotest.test_case "virtual clock monotone" `Quick test_virtual_clock_monotone_in_costs;
    Alcotest.test_case "faulty runs reproducible" `Quick test_faulty_runs_reproducible;
    Alcotest.test_case "reliable delivery converges under faults" `Quick
      test_reliable_converges_to_fault_free;
    Alcotest.test_case "backoff cap bounds completion under faults" `Quick
      test_backoff_cap_bounds_completion;
    Alcotest.test_case "crash after the fixpoint leaves completion" `Quick
      test_crash_leaves_completion;
    Alcotest.test_case "retransmits reuse signatures" `Quick test_retransmits_reuse_signatures;
    Alcotest.test_case "traceback partial across crashed node" `Quick
      test_traceback_partial_across_crashed_node;
    Alcotest.test_case "tracing leaves fixpoint identical" `Quick
      test_tracing_identical_fixpoint;
    Alcotest.test_case "cross-node trace links" `Quick test_cross_node_trace_links;
    Alcotest.test_case "a node runs one handler at a time" `Quick
      test_one_handler_at_a_time;
    Alcotest.test_case "traced parallel engine" `Quick test_traced_parallel_engine;
    Alcotest.test_case "per-rule profiler series" `Quick test_per_rule_profiler_series;
    Alcotest.test_case "security events emitted" `Quick test_security_events_emitted;
    Alcotest.test_case "forged drops kept in event log" `Quick
      test_forged_drops_kept_in_event_log;
    Alcotest.test_case "retry-exhausted event" `Quick test_retry_exhausted_event;
    Alcotest.test_case "critical path semantics" `Quick test_critical_path_semantics;
    Alcotest.test_case "traceback latency view" `Quick test_traceback_latency_view;
    Alcotest.test_case "signed provenance verifies" `Quick test_signed_provenance_verifies ]

(* --- Chord (paper's future work) -------------------------------------------- *)

let test_chord_ring_construction () =
  let ring = Core.Chord.build_ring ~m:10 [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check int) "four members" 4 (List.length ring.members);
  (* members sorted, ids distinct and in range *)
  let ids = List.map snd ring.members in
  Alcotest.(check (list int)) "sorted" (List.sort compare ids) ids;
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id -> Alcotest.(check bool) "in range" true (id >= 0 && id < 1024))
    ids;
  (* successor wraps around the ring *)
  let last_addr, _ = List.nth ring.members 3 in
  let succ_addr, _ = Core.Chord.member_successor ring last_addr in
  Alcotest.(check string) "wraparound" (fst (List.hd ring.members)) succ_addr

let test_chord_true_owner () =
  let ring = Core.Chord.build_ring ~m:8 [ "x"; "y"; "z" ] in
  (* every key's owner is the first member with id >= key (or wrap) *)
  for k = 0 to 255 do
    let owner = Core.Chord.true_owner ring k in
    let expected =
      match List.find_opt (fun (_, id) -> id >= k) ring.members with
      | Some (a, _) -> a
      | None -> fst (List.hd ring.members)
    in
    if owner <> expected then
      Alcotest.failf "key %d: owner %s expected %s" k owner expected
  done

let test_chord_lookups_resolve () =
  let n = 12 in
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:71) ~n () in
  let ring = Core.Chord.build_ring ~m:10 topo.nodes in
  let cfg = { Core.Config.sendlog_prov with rsa_bits } in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:72) ~cfg ~topo
      ~program:(Ndlog.Programs.chord ()) ()
  in
  Core.Chord.install_ring t ring;
  ignore (Core.Runtime.run t);
  let rng = Crypto.Rng.create ~seed:73 in
  let keys = List.init 15 (fun _ -> Crypto.Rng.int rng ring.modulus) in
  List.iter (fun k -> Core.Chord.issue_lookup t ~from:"n3" ~key:k) keys;
  ignore (Core.Runtime.run t);
  let results = Core.Chord.results t ~requester:"n3" in
  Alcotest.(check int) "all resolved" (List.length (List.sort_uniq compare keys))
    (List.length results);
  List.iter
    (fun (r : Core.Chord.lookup_result) ->
      Alcotest.(check string)
        (Printf.sprintf "key %d owner" r.lr_key)
        (Core.Chord.true_owner ring r.lr_key)
        r.lr_owner;
      Alcotest.(check bool) "path starts at requester" true
        (List.hd r.lr_path = "n3"))
    results

let test_chord_provenance_names_path () =
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:74) ~n:10 () in
  let ring = Core.Chord.build_ring ~m:10 topo.nodes in
  let cfg = { Core.Config.sendlog_prov with rsa_bits } in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:75) ~cfg ~topo
      ~program:(Ndlog.Programs.chord ()) ()
  in
  Core.Chord.install_ring t ring;
  ignore (Core.Runtime.run t);
  Core.Chord.issue_lookup t ~from:"n0" ~key:(ring.modulus / 2);
  ignore (Core.Runtime.run t);
  match Core.Runtime.query t ~at:"n0" "lookupResult" with
  | [] -> Alcotest.fail "no lookup result"
  | tuple :: _ ->
    let bases =
      Provenance.Prov_expr.bases (Core.Runtime.provenance_of t ~at:"n0" tuple)
    in
    (* the provenance keys are exactly nodes of the topology, and
       include the hop(s) the path took *)
    Alcotest.(check bool) "non-empty" true (bases <> []);
    List.iter
      (fun b -> Alcotest.(check bool) ("node " ^ b) true (List.mem b topo.nodes))
      bases

let chord_suite =
  [ Alcotest.test_case "chord ring construction" `Quick test_chord_ring_construction;
    Alcotest.test_case "chord true owner" `Quick test_chord_true_owner;
    Alcotest.test_case "chord lookups resolve" `Quick test_chord_lookups_resolve;
    Alcotest.test_case "chord provenance = path" `Quick test_chord_provenance_names_path ]

let suite = suite @ chord_suite

(* --- incremental maintenance (DRed) under churn and expiry --------------- *)

(* [advance ~seconds] is a bounded horizon, not "drain the queue":
   events scheduled beyond it must stay queued (regression: advance
   used to call [Event_sim.run] with no [~until]). *)
let test_advance_bounded_horizon () =
  let t, _ = mk_runtime ~cfg:Core.Config.ndlog ~n:4 () in
  run_links t;
  let fired = ref false in
  Net.Event_sim.schedule (Core.Runtime.sim t) ~delay:1000.0 (fun () -> fired := true);
  let before = Net.Event_sim.now (Core.Runtime.sim t) in
  Core.Runtime.advance t ~seconds:1.0;
  Alcotest.(check bool) "far-future event not executed" false !fired;
  Alcotest.(check (float 1e-9)) "clock advanced exactly" (before +. 1.0)
    (Net.Event_sim.now (Core.Runtime.sim t));
  Core.Runtime.advance t ~seconds:2000.0;
  Alcotest.(check bool) "event runs once inside the horizon" true !fired

(* The acceptance criterion: after a link retraction, the queried
   fixpoint AND its provenance are byte-identical to a from-scratch
   fixpoint over the mutated topology. *)
let test_link_retraction_matches_scratch () =
  let seed = 31 in
  let topo = Net.Topology.random (Crypto.Rng.create ~seed) ~n:8 () in
  let cfg = { Core.Config.sendlog_prov with Core.Config.rsa_bits } in
  let directory = Core.Bestpath_workload.shared_directory ~rsa_bits topo.Net.Topology.nodes in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:(seed + 1)) ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  let l = List.hd topo.Net.Topology.links in
  Core.Runtime.link_down t ~src:l.Net.Topology.l_src ~dst:l.Net.Topology.l_dst;
  ignore (Core.Runtime.run t);
  Alcotest.(check bool) "retraction pass deleted something" true
    (Core.Runtime.tuples_retracted t > 0);
  let topo2 =
    Net.Topology.remove_link topo ~src:l.Net.Topology.l_src ~dst:l.Net.Topology.l_dst
  in
  let t2 =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:(seed + 1)) ~cfg
      ~topo:topo2 ~program:(Ndlog.Programs.best_path ()) ()
  in
  Core.Runtime.install_links t2;
  ignore (Core.Runtime.run t2);
  Alcotest.(check bool) "fixpoint byte-identical to scratch" true
    (Core.Bestpath_workload.fixpoint_snapshot t "bestPath"
    = Core.Bestpath_workload.fixpoint_snapshot t2 "bestPath");
  Alcotest.(check bool) "provenance byte-identical to scratch" true
    (Core.Bestpath_workload.prov_snapshot t "bestPath"
    = Core.Bestpath_workload.prov_snapshot t2 "bestPath")

(* Same criterion for soft-state expiry: a TTL'd base relation expires
   under [advance], its dependents are incrementally retracted, and
   the surviving fixpoint (and provenance) equals a from-scratch run
   that never saw the expired facts. *)
let test_ttl_expiry_matches_scratch () =
  let topo = Net.Topology.paper_example () in
  let src =
    "#ttl templink 5.\n\
     sp1 reachable(@S,D) :- link(@S,D).\n\
     sp2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).\n\
     tp1 reachable(@S,D) :- templink(@S,D).\n"
  in
  let program = Ndlog.Parser.parse_program_exn src in
  let cfg = { Core.Config.sendlog_prov with Core.Config.rsa_bits } in
  let mk () =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:91) ~cfg ~topo ~program ()
  in
  let install_links t =
    List.iter
      (fun (l : Net.Topology.link) ->
        Core.Runtime.install_fact t ~at:l.l_src
          (Tuple.make "link" [ Value.V_str l.l_src; Value.V_str l.l_dst ]))
      topo.links
  in
  let t = mk () in
  install_links t;
  (* an extra soft-state edge c->a that closes a cycle *)
  Core.Runtime.install_fact t ~at:"c"
    (Tuple.make "templink" [ Value.V_str "c"; Value.V_str "a" ]);
  ignore (Core.Runtime.run t);
  let with_temp = Core.Bestpath_workload.fixpoint_snapshot t "reachable" in
  Core.Runtime.advance t ~seconds:10.0;
  ignore (Core.Runtime.run t);
  let t2 = mk () in
  install_links t2;
  ignore (Core.Runtime.run t2);
  let scratch = Core.Bestpath_workload.fixpoint_snapshot t2 "reachable" in
  Alcotest.(check bool) "templink widened the fixpoint" true (with_temp <> scratch);
  Alcotest.(check bool) "post-expiry fixpoint = scratch" true
    (Core.Bestpath_workload.fixpoint_snapshot t "reachable" = scratch);
  Alcotest.(check bool) "post-expiry provenance = scratch" true
    (Core.Bestpath_workload.prov_snapshot t "reachable"
    = Core.Bestpath_workload.prov_snapshot t2 "reachable")

(* A keyed replacement ([Db.insert] returning [Replaced]) must retire
   the incumbent's provenance to the offline log — the history of the
   displaced value is forensic state, not garbage. *)
let test_replaced_incumbent_retired_offline () =
  Test_store.with_temp_dir (fun dir ->
      let cfg = Core.Config.with_prov_log Core.Config.sendlog_prov (Some dir) in
      let t, _ = mk_runtime ~cfg ~n:8 () in
      run_links t;
      (* Best-Path over a random topology replaces incumbents as better
         costs arrive; no TTL ever fires, so every offline record here
         comes from replacement (or the retraction passes it
         triggers). *)
      check_retired_to_log t ~rel:"bestPathCost";
      Core.Runtime.shutdown t)

(* One way out of the live store: a retraction retires what it
   removes.  A shipped head whose derivation dies is retired at its
   sender, and a received copy whose last sender retracts it keeps that
   sender in its record, so every offline walk of a bestPath record,
   rooted at every node the log names, reaches its leaves. *)
let test_offline_trees_complete_after_retraction () =
  Test_store.with_temp_dir (fun dir ->
      let cfg = Core.Config.with_prov_log Core.Config.sendlog_prov (Some dir) in
      let t, topo = mk_runtime ~cfg ~n:12 () in
      run_links t;
      let l = List.hd topo.Net.Topology.links in
      Core.Runtime.link_down t ~src:l.Net.Topology.l_src ~dst:l.Net.Topology.l_dst;
      ignore (Core.Runtime.run t);
      Alcotest.(check bool) "the link's retraction deleted tuples" true
        (Core.Runtime.tuples_retracted t > 0);
      Core.Runtime.link_up t ~src:l.Net.Topology.l_src ~dst:l.Net.Topology.l_dst;
      ignore (Core.Runtime.run t);
      Core.Runtime.sync_prov_log t;
      let log = Option.get (Core.Runtime.prov_log t) in
      let trees = ref 0 in
      List.iter
        (fun ident ->
          List.iter
            (fun at ->
              incr trees;
              let r = Core.Traceback.offline_query log ~at ~ident () in
              if r.Core.Traceback.partial then
                Alcotest.failf "offline tree of %s at %s is partial" ident at)
            (Core.Traceback.offline_nodes log ~ident))
        (Store.Prov_log.idents_of_relation log "bestPath");
      Alcotest.(check bool) "more trees than live bestPath tuples" true
        (!trees > List.length (Core.Runtime.query_all t "bestPath"));
      Core.Runtime.shutdown t)

(* The disk backend walks every finding of one query over a shared
   memo of log lookups; it must answer exactly what one
   [offline_query] per finding answers: the same roots in the same
   order, the same trees and the same [partial] flags, with and
   without a time bound. *)
let test_disk_query_matches_offline_query () =
  Test_store.with_temp_dir (fun dir ->
      let cfg = Core.Config.with_prov_log Core.Config.sendlog_prov (Some dir) in
      let t, topo = mk_runtime ~cfg ~n:12 () in
      run_links t;
      let l = List.hd topo.Net.Topology.links in
      Core.Runtime.link_down t ~src:l.Net.Topology.l_src ~dst:l.Net.Topology.l_dst;
      ignore (Core.Runtime.run t);
      let mid = Core.Runtime.now t in
      Core.Runtime.link_up t ~src:l.Net.Topology.l_src ~dst:l.Net.Topology.l_dst;
      ignore (Core.Runtime.run t);
      Core.Runtime.sync_prov_log t;
      let log = Option.get (Core.Runtime.prov_log t) in
      let render at ident (r : Core.Traceback.result) =
        Printf.sprintf "%s|%s|partial=%b|%s" at ident r.Core.Traceback.partial
          (Obs.Json.to_string (Core.Provenance_query.tree_to_json r.Core.Traceback.tree))
      in
      List.iter
        (fun before ->
          let expected =
            List.concat_map
              (fun ident ->
                List.map
                  (fun at -> render at ident (Core.Traceback.offline_query log ?before ~at ~ident ()))
                  (Core.Traceback.offline_nodes log ~ident))
              (Store.Prov_log.idents_of_relation log "bestPath")
          in
          let q =
            { Core.Provenance_query.q_target = Core.Provenance_query.Relation "bestPath";
              q_before = before;
              q_granularity = None;
              q_backend = Core.Provenance_query.Disk log }
          in
          match Core.Provenance_query.run q with
          | Core.Provenance_query.Trees fs ->
            Alcotest.(check bool) "findings" true (fs <> []);
            Alcotest.(check (list string))
              (Printf.sprintf "before %s"
                 (Option.fold ~none:"none" ~some:string_of_float before))
              expected
              (List.map
                 (fun (f : Core.Provenance_query.finding) ->
                   render f.f_node f.f_ident f.f_result)
                 fs)
          | Core.Provenance_query.Suspects _ -> Alcotest.fail "disk backend answered suspects")
        [ None; Some mid ];
      Core.Runtime.shutdown t)

(* One way in: provenance is captured for tuples that go live at their
   node or ship from it, never for a head its keyed relation rejects
   (a worse bestPathCost, a bestPath witness losing the tie-break),
   nor for a body its keyed relation displaced after the derivation
   that reads it was found.  The second runtime is that case: in one
   fixpoint r1 makes best(n0,5) live and r2 reads it, while r0's
   cand(n0,3) goes on to displace it with best(n0,3). *)
let test_prov_store_holds_live_or_shipped () =
  let check t =
    List.iter
      (fun (n : Core.Runtime.node) ->
        List.iter
          (fun (r : Store.Prov_log.record) ->
            let tu = r.Store.Prov_log.r_tuple in
            let located = Value.to_addr (Tuple.arg tu 0) in
            if String.equal located n.n_addr && not (Db.mem n.n_db tu) then
              Alcotest.failf "%s has provenance at %s but is not live there"
                (Tuple.identity tu) n.n_addr)
          (Core.Prov_store.live_records n.n_prov ~now:0.0))
      (Core.Runtime.nodes t);
    Core.Runtime.shutdown t
  in
  let t, _ = mk_runtime ~cfg:Core.Config.sendlog_prov ~n:16 ~seed:2008 () in
  run_links t;
  check t;
  let src =
    "#key best 0 min 1.\n\
     r2 out(@D, C) :- best(@S, C), peer(@S, D).\n\
     r1 best(@S, C) :- cand(@S, C).\n\
     r0 cand(@S, C) :- slow(@S, C0), C := C0 - 1.\n"
  in
  let cfg = { Core.Config.sendlog_prov with Core.Config.rsa_bits } in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:5) ~cfg
      ~topo:(Net.Topology.line ~n:2 ()) ~program:(Ndlog.Parser.parse_program_exn src) ()
  in
  List.iter
    (Core.Runtime.install_fact t ~at:"n0")
    [ Tuple.make "peer" [ Value.V_str "n0"; Value.V_str "n1" ];
      Tuple.make "cand" [ Value.V_str "n0"; Value.V_int 5 ];
      Tuple.make "slow" [ Value.V_str "n0"; Value.V_int 4 ] ];
  ignore (Core.Runtime.run t);
  Alcotest.(check (list string)) "best(n0,3) displaced best(n0,5)" [ "best(n0, 3)" ]
    (List.map Tuple.identity (Core.Runtime.query t ~at:"n0" "best"));
  check t

(* Link churn on one shard and on two: runs over the same flap schedule
   must each match from-scratch tuple-for-tuple and byte-for-byte on
   provenance.  N = 20 spans two ASes, so both shards hold nodes. *)
let test_seq_vs_par_churn_identical () =
  let run shards =
    let cfg =
      Core.Config.with_shards
        { Core.Config.sendlog_prov with Core.Config.rsa_bits }
        shards
    in
    Core.Bestpath_workload.run_churn ~cfg ~n:20 ~rate:0.4 ~horizon:3.0 ()
  in
  let seq = run 1 and par = run 2 in
  Alcotest.(check bool) "seq matches scratch (fixpoint+prov)" true
    (seq.Core.Bestpath_workload.c_fixpoint_match
    && seq.Core.Bestpath_workload.c_prov_match);
  Alcotest.(check bool) "par matches scratch (fixpoint+prov)" true
    (par.Core.Bestpath_workload.c_fixpoint_match
    && par.Core.Bestpath_workload.c_prov_match);
  Alcotest.(check int) "same flap schedule" seq.Core.Bestpath_workload.c_flaps
    par.Core.Bestpath_workload.c_flaps

(* The flap process is a pure function of --fault-seed. *)
let test_flap_schedule_deterministic () =
  let schedule fault_seed =
    let cfg =
      Core.Config.with_fault_seed { Core.Config.ndlog with Core.Config.rsa_bits }
        fault_seed
    in
    let t, _ = mk_runtime ~cfg ~n:6 () in
    run_links t;
    let flaps = Core.Runtime.schedule_flaps t ~rate:0.5 ~horizon:4.0 () in
    List.map
      (fun (f : Net.Fault.flap) -> (f.fl_src, f.fl_dst, f.fl_at, f.fl_down))
      flaps
  in
  Alcotest.(check bool) "same seed, same flaps" true (schedule 7 = schedule 7);
  Alcotest.(check bool) "different seed, different flaps" true
    (schedule 7 <> schedule 8)

(* Chord under member churn: stale lookup results routed through
   departed members (or through fingers the reassignment shifted) are
   withdrawn and re-derived; exactly one result per key survives, and
   every owner is correct for the final ring. *)
let test_chord_churn_no_stale_results () =
  let n = 12 in
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:81) ~n () in
  let ring0 = Core.Chord.build_ring ~m:10 topo.nodes in
  let cfg = { Core.Config.sendlog_prov with Core.Config.rsa_bits } in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:82) ~cfg ~topo
      ~program:(Ndlog.Programs.chord ()) ()
  in
  Core.Chord.install_ring t ring0;
  ignore (Core.Runtime.run t);
  let rng = Crypto.Rng.create ~seed:83 in
  let keys =
    List.sort_uniq compare (List.init 8 (fun _ -> Crypto.Rng.int rng ring0.modulus))
  in
  List.iter (fun k -> Core.Chord.issue_lookup t ~from:"n0" ~key:k) keys;
  ignore (Core.Runtime.run t);
  (* one member leaves, another joins back after *)
  let leaver = List.find (fun a -> a <> "n0") topo.nodes in
  let ring1 =
    Core.Chord.build_ring ~m:10 (List.filter (fun a -> a <> leaver) topo.nodes)
  in
  Core.Chord.apply_ring_change t ~before:ring0 ~after:ring1;
  ignore (Core.Runtime.run t);
  let ring2 = Core.Chord.build_ring ~m:10 topo.nodes in
  Core.Chord.apply_ring_change t ~before:ring1 ~after:ring2;
  ignore (Core.Runtime.run t);
  let results = Core.Chord.results t ~requester:"n0" in
  Alcotest.(check int) "exactly one result per key (no stale survivors)"
    (List.length keys) (List.length results);
  List.iter
    (fun (r : Core.Chord.lookup_result) ->
      Alcotest.(check string)
        (Printf.sprintf "key %d owner correct for final ring" r.lr_key)
        (Core.Chord.true_owner ring2 r.lr_key)
        r.lr_owner)
    results;
  Alcotest.(check bool) "churn exercised the retraction pass" true
    (Core.Runtime.tuples_retracted t > 0)

let churn_suite =
  [ Alcotest.test_case "advance bounded horizon" `Quick test_advance_bounded_horizon;
    Alcotest.test_case "link retraction = scratch" `Quick
      test_link_retraction_matches_scratch;
    Alcotest.test_case "ttl expiry = scratch" `Quick test_ttl_expiry_matches_scratch;
    Alcotest.test_case "replaced incumbent retired offline" `Quick
      test_replaced_incumbent_retired_offline;
    Alcotest.test_case "offline trees complete after retraction" `Quick
      test_offline_trees_complete_after_retraction;
    Alcotest.test_case "prov store holds live or shipped tuples" `Quick
      test_prov_store_holds_live_or_shipped;
    Alcotest.test_case "seq vs par churn identical" `Quick
      test_seq_vs_par_churn_identical;
    Alcotest.test_case "flap schedule deterministic" `Quick
      test_flap_schedule_deterministic;
    Alcotest.test_case "chord churn: no stale results" `Quick
      test_chord_churn_no_stale_results;
    Alcotest.test_case "disk query = offline_query per finding" `Quick
      test_disk_query_matches_offline_query ]

let suite = suite @ churn_suite

(* --- the provenance refresh ------------------------------------------------ *)

(* A one-node SeNDLogProv runtime over [src]; each batch of facts is
   installed and run to quiescence before the next. *)
let one_node_runtime src batches =
  let cfg = { Core.Config.sendlog_prov with Core.Config.rsa_bits } in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:5) ~cfg
      ~topo:(Net.Topology.line ~n:1 ()) ~program:(Ndlog.Parser.parse_program_exn src) ()
  in
  List.iter
    (fun batch ->
      List.iter (Core.Runtime.install_fact t ~at:"n0") batch;
      ignore (Core.Runtime.run t))
    batches;
  t

let canonical_prov t tu =
  Provenance.Prov_expr.canonical_string (Core.Runtime.provenance_of t ~at:"n0" tu)

(* Best-Path's p3/p4 diamond in miniature: [c] reads [a] directly and
   through [b].  When [a] gains its second alternative after [c]
   exists, the refresh must reach [b] before [c], or [c] keeps a stale
   copy of [b] and its provenance depends on arrival order. *)
let test_diamond_refresh_order_independent () =
  let src =
    "r1 a(@S,X) :- base1(@S,X).\n\
     r2 a(@S,X) :- base2(@S,X).\n\
     r3 b(@S,X) :- a(@S,X).\n\
     r4 c(@S,X) :- a(@S,X), b(@S,X).\n"
  in
  let fact rel = Tuple.make rel [ Value.V_str "n0"; Value.V_int 1 ] in
  let c_prov batches =
    let t = one_node_runtime src batches in
    match Core.Runtime.query t ~at:"n0" "c" with
    | [ c ] -> canonical_prov t c
    | cs -> Alcotest.failf "expected one c tuple, got %d" (List.length cs)
  in
  let together = c_prov [ [ fact "base1"; fact "base2" ] ] in
  Alcotest.(check string) "base2 after c exists = both at once" together
    (c_prov [ [ fact "base1" ]; [ fact "base2" ] ]);
  Alcotest.(check string) "both alternatives in both factors" "(n0+n0)*(n0+n0)" together

(* Transitive closure over an 8-edge ring: the derivation records
   are cyclic, so evaluating an expression must terminate, a body
   already being evaluated contributing zero.  Each tc(x,y) is then
   the product of n0 over the edges of its simple path from x to y (8
   edges for tc(x,x)).  Tuple counts and canonical provenance bytes
   after a retraction are pinned. *)
let test_cycle_refresh_one_lap () =
  let src =
    "t1 tc(@S,X,Y) :- e(@S,X,Y).\n\
     t2 tc(@S,X,Z) :- tc(@S,X,Y), e(@S,Y,Z).\n"
  in
  let edge i = Tuple.make "e" [ Value.V_str "n0"; Value.V_int i; Value.V_int ((i + 1) mod 8) ] in
  let t = one_node_runtime src [ List.init 8 edge ] in
  let tc_size () =
    let tcs = Core.Runtime.query t ~at:"n0" "tc" in
    ( List.length tcs,
      List.fold_left (fun acc tu -> acc + String.length (canonical_prov t tu)) 0 tcs )
  in
  let tcs = Core.Runtime.query t ~at:"n0" "tc" in
  Alcotest.(check int) "converged: tuples" 64 (List.length tcs);
  List.iter
    (fun tu ->
      let int_arg i = match Tuple.arg tu i with Value.V_int v -> v | _ -> assert false in
      let edges = match (int_arg 2 - int_arg 1 + 8) mod 8 with 0 -> 8 | k -> k in
      Alcotest.(check string) (Tuple.to_string tu)
        (String.concat "*" (List.init edges (fun _ -> "n0")))
        (canonical_prov t tu))
    tcs;
  Core.Runtime.retract_fact t ~at:"n0" (edge 0);
  ignore (Core.Runtime.run t);
  Alcotest.(check (pair int int)) "after retracting e(0,1)" (28, 224) (tc_size ())

(* Distributed provenance records derivation pointers only: no derived
   tuple carries an expression, only the base link facts do. *)
let test_distributed_stores_pointers_only () =
  let cfg = { Core.Config.sendlog_prov with prov = Core.Config.Prov_distributed } in
  let t, _ = mk_runtime ~cfg ~n:8 () in
  run_links t;
  let has_expr (at, tu) =
    not
      (Provenance.Prov_expr.equal Provenance.Prov_expr.zero
         (Core.Runtime.provenance_of t ~at tu))
  in
  List.iter
    (fun rel ->
      let tuples = Core.Runtime.query_all t rel in
      Alcotest.(check bool) (rel ^ " derived") true (tuples <> []);
      List.iter
        (fun ((at, tu) as x) ->
          if has_expr x then
            Alcotest.failf "%s@%s carries an expression" (Tuple.to_string tu) at)
        tuples)
    [ "path"; "bestPathCost"; "bestPath" ];
  Alcotest.(check bool) "link facts keep their base keys" true
    (List.for_all has_expr (Core.Runtime.query_all t "link"))

(* Traceback walks the same derivation records [expr_of] evaluates,
   so on every live Best-Path tuple the two agree once condensed
   (absorption), and every base a traceback names is a node: a second
   path to a tuple (bestPath reads path directly and through
   bestPathCost) is a shared reference, not a leaf keyed by the
   derived tuple. *)
let test_traceback_agrees_with_stored () =
  let ctx = Provenance.Condense.create_ctx () in
  let condensed e =
    Provenance.Prov_expr.canonical_string (fst (Provenance.Condense.condense ctx e))
  in
  List.iter
    (fun seed ->
      let t, topo = mk_runtime ~cfg:Core.Config.sendlog_prov ~seed ~n:20 () in
      run_links t;
      List.iter
        (fun rel ->
          List.iter
            (fun (at, tu) ->
              let what = Printf.sprintf "seed %d: %s at %s" seed (Tuple.to_string tu) at in
              let r = Core.Traceback.query t ~at tu in
              Alcotest.(check string) what
                (condensed (Core.Runtime.provenance_of t ~at tu))
                (condensed r.Core.Traceback.expr);
              List.iter
                (fun b ->
                  if not (List.mem b topo.Net.Topology.nodes) then
                    Alcotest.failf "%s: traceback base %s is not a node" what b)
                (Provenance.Prov_expr.bases r.Core.Traceback.expr))
            (Core.Runtime.query_all t rel))
        [ "path"; "bestPathCost"; "bestPath" ];
      Core.Runtime.shutdown t)
    [ 1; 2; 3 ]

let refresh_suite =
  [ Alcotest.test_case "diamond refresh is order-independent" `Quick
      test_diamond_refresh_order_independent;
    Alcotest.test_case "cyclic refresh: one lap" `Quick test_cycle_refresh_one_lap;
    Alcotest.test_case "distributed stores pointers only" `Quick
      test_distributed_stores_pointers_only;
    Alcotest.test_case "traceback agrees with the stored expression" `Quick
      test_traceback_agrees_with_stored ]

(* Any flap schedule leaves every Best-Path relation, and its
   provenance, equal to a from-scratch run: copies shipped with an
   older expression need no re-shipping. *)
let prop_flaps_match_scratch =
  QCheck.Test.make ~name:"flap churn = scratch on every relation" ~count:8
    QCheck.(triple (int_range 1 10_000) (int_range 1 10_000) (float_range 0.2 0.6))
    (fun (seed, fault_seed, rate) ->
      let cfg =
        Core.Config.with_fault_seed
          { Core.Config.sendlog_prov with Core.Config.rsa_bits }
          fault_seed
      in
      let p = Core.Bestpath_workload.run_churn ~cfg ~seed ~n:8 ~rate ~horizon:3.0 () in
      p.Core.Bestpath_workload.c_fixpoint_match && p.Core.Bestpath_workload.c_prov_match)

let suite =
  suite @ refresh_suite @ [ QCheck_alcotest.to_alcotest prop_flaps_match_scratch ]

(* --- distributed reachability property -------------------------------------- *)

(* Distributed evaluation over random topologies matches the
   transitive closure of the link graph, with cheap cleartext auth so
   the property can run many cases. *)
let prop_distributed_reachable =
  QCheck.Test.make ~name:"distributed reachable = closure" ~count:10
    (QCheck.make QCheck.Gen.(int_range 4 9))
    (fun n ->
      let topo = Net.Topology.random (Crypto.Rng.create ~seed:(1000 + n)) ~n () in
      let cfg = { Core.Config.default with auth = Sendlog.Auth.Auth_cleartext } in
      let t =
        Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:2) ~cfg ~topo
          ~program:(Ndlog.Programs.reachable ()) ()
      in
      List.iter
        (fun (l : Net.Topology.link) ->
          Core.Runtime.install_fact t ~at:l.l_src
            (Tuple.make "link" [ Value.V_str l.l_src; Value.V_str l.l_dst ]))
        topo.links;
      ignore (Core.Runtime.run t);
      (* reference closure *)
      let reach = Hashtbl.create 64 in
      List.iter (fun (l : Net.Topology.link) -> Hashtbl.replace reach (l.l_src, l.l_dst) ()) topo.links;
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                List.iter
                  (fun c ->
                    if Hashtbl.mem reach (a, b) && Hashtbl.mem reach (b, c)
                       && not (Hashtbl.mem reach (a, c)) then begin
                      Hashtbl.replace reach (a, c) ();
                      changed := true
                    end)
                  topo.nodes)
              topo.nodes)
          topo.nodes
      done;
      let expected =
        Hashtbl.fold (fun (a, b) () acc -> Printf.sprintf "%s>%s" a b :: acc) reach []
        |> List.sort compare
      in
      let got =
        List.map
          (fun (_, tu) ->
            Printf.sprintf "%s>%s"
              (Value.to_addr (Tuple.arg tu 0))
              (Value.to_addr (Tuple.arg tu 1)))
          (Core.Runtime.query_all t "reachable")
        |> List.sort compare
      in
      got = expected)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_distributed_reachable ]

(* --- tuples live as long as a runtime holds them ---------------------------- *)

(* Weak pointers to every link, path, bestPath and bestPathCost tuple a
   finished N=6 Best-Path runtime stored, taken before its shutdown.
   The runtime itself is unreachable once this returns.  The topology
   seed is this test's own, so no earlier test in the process builds
   equal tuples. *)
let stored_tuples_weakly (cfg : Core.Config.t) : Engine.Tuple.t Weak.t =
  let t, _ = mk_runtime ~cfg ~seed:611 ~n:6 () in
  run_links t;
  let tuples =
    List.concat_map
      (fun rel -> List.map snd (Core.Runtime.query_all t rel))
      [ "link"; "path"; "bestPath"; "bestPathCost" ]
  in
  let w = Weak.create (List.length tuples) in
  List.iteri (fun i tu -> Weak.set w i (Some tu)) tuples;
  Core.Runtime.shutdown t;
  w

let test_tuples_freed_after_shutdown () =
  List.iter
    (fun (name, cfg) ->
      let w = (Sys.opaque_identity stored_tuples_weakly) cfg in
      Gc.full_major ();
      let alive = ref 0 in
      for i = 0 to Weak.length w - 1 do
        if Weak.check w i then incr alive
      done;
      Alcotest.(check bool) (name ^ ": the run stored tuples") true (Weak.length w > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: stored tuples still reachable (of %d)" name (Weak.length w))
        0 !alive)
    [ ("NDLog", Core.Config.ndlog); ("SeNDLogProv", Core.Config.sendlog_prov) ]

let suite =
  suite
  @ [ Alcotest.test_case "tuples are freed with their runtime" `Quick
        test_tuples_freed_after_shutdown ]
