(* Sharded conservative simulator (DESIGN.md Section 11): the
   acceptance bar is byte-identity — for any shard count K the
   distributed fixpoint, the AC-canonical provenance of every tuple
   and the bestPath set must equal the sequential (K=1) run's, because
   cross-shard deliveries are exchanged at conservative lookahead
   barriers in a deterministic (timestamp, source shard, send order)
   merge.  Also covers the zero-lookahead degenerate case and the
   AS-level provenance granularity cut. *)

let rsa_bits = 384

(* One full Best-Path run at a given shard count. *)
let run_with ?directory ?(cfg = Core.Config.ndlog) ?(seed = 7) ?(n = 40)
    ~(shards : int) () : Core.Runtime.t =
  let topo = Net.Topology.random (Crypto.Rng.create ~seed) ~n () in
  let cfg = Core.Config.with_shards { cfg with Core.Config.rsa_bits } shards in
  let t =
    Core.Runtime.create ?directory
      ~rng:(Crypto.Rng.create ~seed:(seed + 1))
      ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ())
      ()
  in
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  t

(* Snapshots rendered as sorted strings so Alcotest diffs name the
   first diverging tuple instead of printing "false". *)
let fixpoint_lines t =
  List.map
    (fun (addr, ident) -> addr ^ "|" ^ ident)
    (Core.Bestpath_workload.fixpoint_snapshot t "bestPath")

let prov_lines t =
  List.map
    (fun ((addr, ident), expr) -> addr ^ "|" ^ ident ^ "|" ^ expr)
    (Core.Bestpath_workload.prov_snapshot t "bestPath")

(* --- shard partitioning ------------------------------------------------- *)

let test_shard_count_follows_config () =
  (* N=40 random topology spans 4 ASes; [--shards 0] means one shard
     per AS, an explicit K is clamped to the node count *)
  let count shards = Core.Runtime.shard_count (run_with ~n:40 ~shards ()) in
  Alcotest.(check int) "default is sequential" 1 (count 1);
  Alcotest.(check int) "explicit K" 2 (count 2);
  Alcotest.(check int) "0 = one shard per AS" 4 (count 0);
  let tiny = run_with ~n:6 ~shards:64 () in
  Alcotest.(check int) "K clamped to node count" 6 (Core.Runtime.shard_count tiny)

(* --- byte-identity across shard counts ---------------------------------- *)

let test_identity_ndlog () =
  let reference = fixpoint_lines (run_with ~n:40 ~shards:1 ()) in
  List.iter
    (fun k ->
      Alcotest.(check (list string))
        (Printf.sprintf "fixpoint identical at K=%d" k)
        reference
        (fixpoint_lines (run_with ~n:40 ~shards:k ())))
    [ 2; 4 ]

let test_identity_provenance () =
  (* SeNDLogProv: authenticated sends plus condensed provenance must
     survive the shard barriers byte-for-byte *)
  let snap k =
    let t = run_with ~cfg:Core.Config.sendlog_prov ~n:20 ~shards:k () in
    (fixpoint_lines t, prov_lines t)
  in
  let fp1, pv1 = snap 1 in
  List.iter
    (fun k ->
      let fpk, pvk = snap k in
      Alcotest.(check (list string))
        (Printf.sprintf "fixpoint identical at K=%d" k)
        fp1 fpk;
      Alcotest.(check (list string))
        (Printf.sprintf "canonical provenance identical at K=%d" k)
        pv1 pvk)
    [ 2; 4 ]

let test_identity_under_churn () =
  (* link flaps drive the DRed deletion pass; the flap schedule is
     seeded per link, so sharded and sequential runs see the same
     transitions and must re-converge to the same annotated fixpoint *)
  let snap k =
    let t = run_with ~cfg:Core.Config.sendlog_prov ~n:20 ~shards:k () in
    ignore (Core.Runtime.schedule_flaps t ~rate:0.4 ~horizon:3.0 ());
    ignore (Core.Runtime.run t);
    (fixpoint_lines t, prov_lines t)
  in
  let fp1, pv1 = snap 1 in
  let fp2, pv2 = snap 2 in
  Alcotest.(check (list string)) "post-churn fixpoint identical" fp1 fp2;
  Alcotest.(check (list string)) "post-churn provenance identical" pv1 pv2

let test_identity_under_faults_and_crash () =
  (* 20% loss, duplication and a mid-run crash-and-restart: verdicts
     hash message identity (not enqueue order), so the same content is
     dropped in both runs and reliable delivery converges to the same
     fixpoint regardless of K *)
  let crash = { Net.Fault.cr_node = "n2"; cr_at = 0.05; cr_restart = Some 0.15 } in
  let cfg =
    let c = Core.Config.with_loss Core.Config.ndlog 0.2 in
    let c = Core.Config.with_dup c 0.05 in
    let c = Core.Config.with_fault_seed c 99 in
    let c = Core.Config.with_crash c crash in
    Core.Config.with_reliable c true
  in
  let snap k =
    let t = run_with ~cfg ~n:20 ~shards:k () in
    (fixpoint_lines t, (Core.Runtime.stats t).Net.Stats.drops > 0)
  in
  let fp1, engaged1 = snap 1 in
  let fp2, engaged2 = snap 2 in
  Alcotest.(check bool) "faults engaged in both runs" true (engaged1 && engaged2);
  Alcotest.(check (list string)) "fixpoint identical under faults" fp1 fp2

(* --- zero lookahead ------------------------------------------------------ *)

let test_zero_lookahead () =
  (* a 0-latency cross-AS link collapses the safe-advance window to a
     single timestamp; the engine must degrade to lockstep rounds and
     still match the sequential fixpoint *)
  let nodes = [ "a"; "b"; "c"; "d" ] in
  let as_of = Hashtbl.create 4 in
  List.iter (fun (n, a) -> Hashtbl.replace as_of n a)
    [ ("a", 0); ("b", 0); ("c", 1); ("d", 1) ];
  let link l_src l_dst l_latency = { Net.Topology.l_src; l_dst; l_cost = 1; l_latency } in
  let links =
    [ link "a" "b" 0.01; link "b" "a" 0.01;
      link "c" "d" 0.01; link "d" "c" 0.01;
      link "b" "c" 0.0; link "c" "b" 0.0 ]
  in
  let topo = Net.Topology.validated ~nodes ~links ~as_of in
  let run shards =
    let cfg =
      Core.Config.with_shards { Core.Config.ndlog with Core.Config.rsa_bits } shards
    in
    let t =
      Core.Runtime.create
        ~rng:(Crypto.Rng.create ~seed:11)
        ~cfg ~topo
        ~program:(Ndlog.Programs.best_path ())
        ()
    in
    Core.Runtime.install_links t;
    ignore (Core.Runtime.run t);
    t
  in
  let sharded = run 2 in
  Alcotest.(check int) "two shards in play" 2 (Core.Runtime.shard_count sharded);
  Alcotest.(check (list string))
    "zero-lookahead fixpoint identical"
    (fixpoint_lines (run 1))
    (fixpoint_lines sharded)

(* --- AS-level provenance granularity ------------------------------------- *)

let test_domain_summary () =
  let open Provenance in
  Alcotest.(check bool) "zero summarizes to zero" true
    (Prov_expr.equal (Condense.domain_summary Prov_expr.zero ~domain:"as3") Prov_expr.zero);
  let e = Prov_expr.(plus (base "n1") (times (base "n2") (base "n3"))) in
  Alcotest.(check bool) "non-zero collapses to the domain base" true
    (Prov_expr.equal (Condense.domain_summary e ~domain:"as3") (Prov_expr.base "as3"))

let test_as_granularity_end_to_end () =
  (* same fixpoint as node-level, but cross-AS shipments carry only
     the origin domain, so domain bases appear in the annotations and
     a traceback stops at the AS boundary *)
  let cfg =
    Core.Config.with_granularity Core.Config.sendlog_prov Core.Config.As_level
  in
  let t = run_with ~cfg ~n:20 ~shards:1 () in
  let node_level = run_with ~cfg:Core.Config.sendlog_prov ~n:20 ~shards:1 () in
  Alcotest.(check (list string))
    "granularity does not change the fixpoint"
    (fixpoint_lines node_level) (fixpoint_lines t);
  let is_domain b = String.length b >= 2 && String.sub b 0 2 = "as" in
  (* the stored annotations of cross-AS derived tuples name domains *)
  let any_domain_base =
    List.exists
      (fun (addr, tu) ->
        List.exists is_domain
          (Provenance.Prov_expr.bases (Core.Runtime.provenance_of t ~at:addr tu)))
      (Core.Runtime.query_all t "bestPath")
  in
  Alcotest.(check bool) "some provenance names an origin domain" true any_domain_base;
  (* traceback from a node: chains that leave the querying node's AS
     terminate in a leaf said by the foreign domain *)
  let topo = Core.Runtime.topology t in
  let cross =
    List.find_opt
      (fun (addr, tu) ->
        Net.Topology.as_of topo addr = 0
        && List.exists is_domain
             (let r = Core.Traceback.query t ~at:addr tu in
              Provenance.Prov_expr.bases r.Core.Traceback.expr))
      (Core.Runtime.query_all t "bestPath")
  in
  Alcotest.(check bool) "a traceback hit a domain boundary" true (cross <> None)

let suite =
  [ Alcotest.test_case "shard count follows config" `Quick test_shard_count_follows_config;
    Alcotest.test_case "byte-identity: NDLog K=2,4" `Quick test_identity_ndlog;
    Alcotest.test_case "byte-identity: provenance K=2,4" `Quick test_identity_provenance;
    Alcotest.test_case "byte-identity under churn" `Quick test_identity_under_churn;
    Alcotest.test_case "byte-identity under faults and crash" `Quick
      test_identity_under_faults_and_crash;
    Alcotest.test_case "zero lookahead degenerates safely" `Quick test_zero_lookahead;
    Alcotest.test_case "domain summary collapses expressions" `Quick test_domain_summary;
    Alcotest.test_case "AS granularity end to end" `Quick
      test_as_granularity_end_to_end ]
