(* Benchmark harness: regenerates every figure in the paper's
   evaluation (Section 6) and the ablations EXPERIMENTS.md quotes.

     dune exec bench/main.exe                 full reproduction
     dune exec bench/main.exe -- --quick      small sweep (N <= 40), no N=1000 point
     dune exec bench/main.exe -- --figures    skip ablations A, C, D and the micro-benchmarks
     dune exec bench/main.exe -- --micro      Bechamel micro-benchmarks only
     dune exec bench/main.exe -- --no-micro   skip the micro-benchmarks
     dune exec bench/main.exe -- --ns 10,20   custom sweep sizes
     dune exec bench/main.exe -- --runs 3     runs averaged per size
     dune exec bench/main.exe -- --rsa-bits 512

   Every run writes BENCH_results.json to the working directory.  The
   harness measures and reports; it does not judge timings (the
   regression gate is benchmark/'s paired --compare, DESIGN.md section 9).
   It exits nonzero only on a bad flag (2) or when the provenance-log
   write-through changes the fixpoint (1).

   Output sections:
     Figure 3  query completion time (s) per configuration
     Figure 4  bandwidth utilization (MB) per configuration
     Section 6 overhead summary (the paper's +53%/+36%/+41%/+54% text)
     Forensics ablation  provenance-log write-through + offline traceback
     Beyond the paper    N=1000 at AS granularity
     Ablation A  local (proactive) vs distributed (reactive) provenance
     Ablation C  sampling and Bloom digests
     Ablation D  provenance granularity (node vs AS)
     Micro       Bechamel micro-benchmarks of the substrates *)

let default_ns = [ 10; 20; 30; 40; 50; 60; 80; 100 ]

type options = {
  mutable ns : int list;
  mutable runs : int;
  mutable rsa_bits : int;
  mutable figures_only : bool;
  mutable micro_only : bool;
  mutable skip_micro : bool;
  mutable n1000 : bool; (* beyond-paper N=1000 point; --quick turns it off *)
}

let parse_args () =
  let o =
    (* runs = 3 so every sweep point carries a mean and a sample stddev
       (the paper averages 10 experimental runs; 3 keeps the full sweep
       affordable while still bounding the noise). *)
    { ns = default_ns; runs = 3; rsa_bits = Core.Config.default.rsa_bits;
      figures_only = false; micro_only = false; skip_micro = false; n1000 = true }
  in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> fail "%s: expected an integer, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      o.ns <- [ 10; 20; 30; 40 ];
      o.n1000 <- false;
      go rest
    | "--figures" :: rest ->
      o.figures_only <- true;
      go rest
    | "--micro" :: rest ->
      o.micro_only <- true;
      go rest
    | "--no-micro" :: rest ->
      o.skip_micro <- true;
      go rest
    | "--ns" :: v :: rest ->
      o.ns <- List.map (int_arg "--ns") (String.split_on_char ',' v);
      go rest
    | "--runs" :: v :: rest ->
      o.runs <- int_arg "--runs" v;
      go rest
    | "--rsa-bits" :: v :: rest ->
      (match Core.Config.with_rsa_bits Core.Config.default (int_arg "--rsa-bits" v) with
      | cfg -> o.rsa_bits <- cfg.Core.Config.rsa_bits
      | exception Invalid_argument e -> fail "--rsa-bits: %s" e);
      go rest
    | [ ("--ns" | "--runs" | "--rsa-bits") as flag ] -> fail "%s: missing value" flag
    | arg :: _ -> fail "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Per-phase telemetry: each section resets the shared registry on
   entry and prints the headline series it accumulated on exit, so the
   numbers attribute to that phase alone. *)
let phase_reset () = Obs.Metrics.reset Obs.Metrics.default

(* Percentile summary of the phase's headline latency histograms
   (estimated from the log-scale buckets; see Obs.Profile). *)
let phase_percentiles (phase : string) : unit =
  let reg = Obs.Metrics.default in
  List.iter
    (fun name ->
      let h = Obs.Metrics.histogram reg name in
      if Obs.Metrics.hist_count h > 0 then
        Printf.printf "[%s percentiles] %s: %s\n" phase name
          (Obs.Profile.summary_string (Obs.Profile.summary h)))
    [ "runtime.handler_seconds"; "crypto.sign_seconds"; "crypto.verify_seconds" ]

let phase_metrics (phase : string) : unit =
  let reg = Obs.Metrics.default in
  let c name = Obs.Metrics.value (Obs.Metrics.counter reg name) in
  let sign = Obs.Metrics.histogram reg "crypto.sign_seconds" in
  let handler = Obs.Metrics.histogram reg "runtime.handler_seconds" in
  Printf.printf
    "\n[%s metrics] eval.rounds=%d eval.derivations=%d wire.messages=%d \
     wire.bytes_total=%d sim.queue_depth_max=%.0f crypto.sign{n=%d sum=%.3fs} \
     handler{n=%d sum=%.3fs} condense{hit=%d miss=%d}\n"
    phase (c "eval.rounds") (c "eval.derivations") (c "wire.messages")
    (c "wire.bytes_total")
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge reg "sim.queue_depth_max"))
    (Obs.Metrics.hist_count sign) (Obs.Metrics.hist_sum sign)
    (Obs.Metrics.hist_count handler) (Obs.Metrics.hist_sum handler)
    (c "prov.condense_hits") (c "prov.condense_misses");
  phase_percentiles phase

(* Machine-readable companion to the human tables: the sweep points,
   the forensics and N=1000 records, and the figure phase's metrics
   snapshot, for tracking the perf trajectory across changes. *)
let write_results_json (o : options) (points : Core.Bestpath_workload.point list)
    ~(figure_metrics : Obs.Json.t) ~(forensics_ablation : Obs.Json.t)
    ~(sweep_n1000 : Obs.Json.t) : unit =
  let doc =
    Obs.Json.Obj
      [ ("workload", Obs.Json.Str "best-path sweep (Figures 3 & 4)");
        ("ns", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) o.ns));
        ("runs", Obs.Json.Int o.runs);
        ("rsa_bits", Obs.Json.Int o.rsa_bits);
        ("points", Obs.Json.List (List.map Core.Bestpath_workload.point_to_json points));
        ("forensics_ablation", forensics_ablation);
        ("sweep_n1000", sweep_n1000);
        ("metrics", figure_metrics) ]
  in
  let file = "BENCH_results.json" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s (%d sweep points)\n" file (List.length points)

(* --- Beyond the paper: N=1000 at AS granularity -------------------------- *)

(* The paper's sweep stops at N=100.  This point runs the provenance-
   shipping configuration an order of magnitude past that — N=1000,
   AS-level provenance granularity (cross-AS shipments carry the origin
   domain's base key, ~1 per 10 nodes), one simulator shard per AS —
   and reports throughput (messages and derivations per real second)
   over a bounded virtual-time window rather than running the
   all-pairs query to quiescence, which is quadratic in N and not the
   point of the measurement. *)
let sweep_n1000 (o : options) : Obs.Json.t =
  hr "Beyond the paper: N=1000, AS-level provenance, one shard per AS";
  phase_reset ();
  let n = 1000 in
  let horizon = 0.15 in
  Printf.printf
    "workload: Best-Path (SeNDLogProv, %d-bit RSA), N=%d, --prov-granularity domain,\n\
     --shards 0 (one conservative shard per AS), run to virtual t=%.2fs\n\n"
    o.rsa_bits n horizon;
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:2032) ~n () in
  let t0 = Unix.gettimeofday () in
  let directory =
    Core.Bestpath_workload.shared_directory ~rsa_bits:o.rsa_bits topo.Net.Topology.nodes
  in
  Printf.printf "provisioned %d principals (%.0fs real, shared across phases)\n%!" n
    (Unix.gettimeofday () -. t0);
  let cfg =
    Core.Config.with_granularity
      (Core.Config.with_shards
         { Core.Config.sendlog_prov with rsa_bits = o.rsa_bits }
         0)
      Core.Config.As_level
  in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:1) ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  Core.Runtime.install_links t;
  let r = Core.Runtime.run ~until:horizon t in
  let st = Core.Runtime.stats t in
  let c name = Obs.Metrics.value (Obs.Metrics.counter Obs.Metrics.default name) in
  let derivations = c "eval.derivations" in
  let shard_count = Core.Runtime.shard_count t in
  let wall = r.Core.Runtime.wall_seconds in
  let msgs_per_sec =
    if wall > 0.0 then float_of_int st.Net.Stats.messages /. wall else 0.0
  in
  let tuples_per_sec =
    if wall > 0.0 then float_of_int derivations /. wall else 0.0
  in
  Core.Runtime.shutdown t;
  Printf.printf
    "%-24s %14s\n%-24s %14d\n%-24s %14.3f\n%-24s %14d\n%-24s %14d\n%-24s %14.0f\n%-24s %14.0f\n"
    "metric" "value" "shards (=ASes)" shard_count "wall (s)" wall "messages"
    st.Net.Stats.messages "derivations" derivations "messages/sec" msgs_per_sec
    "tuples/sec" tuples_per_sec;
  Obs.Json.Obj
    [ ("workload", Obs.Json.Str "best-path, SeNDLogProv, AS granularity, sharded");
      ("n", Obs.Json.Int n);
      ("granularity", Obs.Json.Str "domain");
      ("shards", Obs.Json.Int shard_count);
      ("horizon_sim_seconds", Obs.Json.Float horizon);
      ("wall_seconds", Obs.Json.Float wall);
      ("sim_seconds", Obs.Json.Float r.Core.Runtime.sim_seconds);
      ("events", Obs.Json.Int r.Core.Runtime.events);
      ("messages", Obs.Json.Int st.Net.Stats.messages);
      ("derivations", Obs.Json.Int derivations);
      ("messages_per_sec", Obs.Json.Float msgs_per_sec);
      ("tuples_per_sec", Obs.Json.Float tuples_per_sec);
      ("megabytes", Obs.Json.Float (float_of_int st.Net.Stats.bytes_total /. 1e6)) ]
(* --- Forensics ablation: prov-log write-through + offline queries ------- *)

let rm_rf dir =
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir

(* Section 5.2 end to end: the same SeNDLogProv Best-Path run with and
   without the persisted provenance log (the retire write-through,
   1/K-sampled flows and Bloom digests all active), then offline
   traceback over the log a *fresh handle* recovers from disk — the
   restart story.  The write-through must leave the fixpoint unchanged
   (exit 1 otherwise); its wall overhead is reported, not judged.  In
   full runs the offline-query latency point moves to N=1000 at domain
   granularity, matching the sweep. *)
let forensics_ablation (o : options) : Obs.Json.t =
  hr "Forensics ablation: provenance-log write-through + offline queries";
  let n = 80 in
  let log_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psn-bench-provlog-%d" (Unix.getpid ()))
  in
  rm_rf log_dir;
  Printf.printf
    "workload: Best-Path over one random topology, N=%d, SeNDLogProv config\n\
     (paired runs: identical evaluation, one writing retirements, sampled\n\
     flows and Bloom digests through to %s)\n\n"
    n log_dir;
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:2033) ~n () in
  let directory =
    Core.Bestpath_workload.shared_directory ~rsa_bits:o.rsa_bits topo.Net.Topology.nodes
  in
  let fixpoint t =
    List.map
      (fun (at, tu) -> at ^ "|" ^ Engine.Tuple.identity tu)
      (Core.Runtime.query_all t "bestPath")
    |> List.sort compare
  in
  let measure prov_log =
    phase_reset ();
    let cfg = { Core.Config.sendlog_prov with rsa_bits = o.rsa_bits } in
    let cfg = Core.Config.with_prov_log cfg prov_log in
    let t =
      Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:1) ~cfg ~topo
        ~program:(Ndlog.Programs.best_path ()) ()
    in
    Core.Runtime.install_links t;
    let r = Core.Runtime.run t in
    Core.Runtime.sync_prov_log t;
    let fp = fixpoint t in
    let stats =
      match Core.Runtime.prov_log t with
      | Some log ->
        ( Store.Prov_log.record_count log,
          Store.Prov_log.flow_count log,
          Store.Prov_log.digest_count log,
          Store.Prov_log.segment_count log,
          Store.Prov_log.bytes_on_disk log )
      | None -> (0, 0, 0, 0, 0)
    in
    Core.Runtime.shutdown t;
    (r.Core.Runtime.wall_seconds, fp, stats)
  in
  let base_wall, base_fp, _ = measure None in
  let log_wall, log_fp, (records, flows, digests, segments, log_bytes) =
    measure (Some log_dir)
  in
  let overhead_pct =
    if base_wall > 0.0 then 100.0 *. ((log_wall /. base_wall) -. 1.0) else 0.0
  in
  let fixpoint_ok = base_fp = log_fp in
  Printf.printf "%-12s %14s %14s\n" "config" "wall (s)" "best paths";
  Printf.printf "%-12s %14.3f %14d\n" "no log" base_wall (List.length base_fp);
  Printf.printf "%-12s %14.3f %14d\n" "prov-log" log_wall (List.length log_fp);
  Printf.printf
    "\nwrite-through overhead: %+.1f%% wall  fixpoint: %s\n\
     log: %d records, %d flows, %d digests, %d segments, %d bytes\n"
    overhead_pct
    (if fixpoint_ok then "identical" else "DIVERGED")
    records flows digests segments log_bytes;
  if not fixpoint_ok then begin
    Printf.eprintf
      "FAILURE: prov-log write-through changed the fixpoint (%d vs %d bestPath tuples)\n"
      (List.length base_fp) (List.length log_fp);
    exit 1
  end;
  (* Offline-query latency, from a handle that recovered the log from
     disk.  Full runs take the N=1000 domain-granularity point (the
     sweep's configuration); --quick reuses the N=80 log just written. *)
  let query_n, query_granularity, query_log_dir =
    if o.n1000 then begin
      let qn = 1000 in
      let q_dir = log_dir ^ "-n1000" in
      rm_rf q_dir;
      Printf.printf
        "\npopulating the N=%d domain-granularity log for offline queries...\n%!"
        qn;
      let topo = Net.Topology.random (Crypto.Rng.create ~seed:2032) ~n:qn () in
      let directory =
        Core.Bestpath_workload.shared_directory ~rsa_bits:o.rsa_bits
          topo.Net.Topology.nodes
      in
      let cfg =
        Core.Config.with_granularity
          (Core.Config.with_shards
             { Core.Config.sendlog_prov with rsa_bits = o.rsa_bits }
             0)
          Core.Config.As_level
      in
      let cfg = Core.Config.with_prov_log cfg (Some q_dir) in
      let t =
        Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:1) ~cfg ~topo
          ~program:(Ndlog.Programs.best_path ()) ()
      in
      Core.Runtime.install_links t;
      ignore (Core.Runtime.run ~until:0.15 t);
      Core.Runtime.sync_prov_log t;
      Core.Runtime.shutdown t;
      (qn, Core.Config.As_level, q_dir)
    end
    else (n, Core.Config.Node_level, log_dir)
  in
  let log = Store.Prov_log.open_log ~dir:query_log_dir () in
  let idents =
    let all = Store.Prov_log.idents_of_relation log "bestPath" in
    List.filteri (fun i _ -> i < 200) all
  in
  let latencies =
    List.filter_map
      (fun ident ->
        match Core.Traceback.offline_nodes log ~ident with
        | [] -> None
        | at :: _ ->
          let t0 = Unix.gettimeofday () in
          ignore
            (Core.Traceback.offline_query log
               ~granularity:query_granularity ~at ~ident ());
          Some (Unix.gettimeofday () -. t0))
      idents
  in
  Store.Prov_log.close log;
  rm_rf log_dir;
  if query_log_dir <> log_dir then rm_rf query_log_dir;
  let p50, p99 =
    match List.sort compare latencies with
    | [] -> (0.0, 0.0)
    | sorted ->
      let arr = Array.of_list sorted in
      let pick q =
        arr.(min (Array.length arr - 1)
               (int_of_float (q *. float_of_int (Array.length arr))))
      in
      (pick 0.50, pick 0.99)
  in
  Printf.printf
    "\noffline traceback (fresh handle, N=%d, %s granularity): %d queries, \
     p50 %.2fms, p99 %.2fms\n"
    query_n
    (match query_granularity with
    | Core.Config.As_level -> "domain"
    | Core.Config.Node_level -> "node")
    (List.length latencies) (p50 *. 1e3) (p99 *. 1e3);
  Obs.Json.Obj
    [ ("workload", Obs.Json.Str "best-path, one topology, SeNDLogProv config");
      ("n", Obs.Json.Int n);
      ("base_wall_seconds", Obs.Json.Float base_wall);
      ("provlog_wall_seconds", Obs.Json.Float log_wall);
      ("overhead_pct", Obs.Json.Float overhead_pct);
      ("best_paths", Obs.Json.Int (List.length log_fp));
      ("records", Obs.Json.Int records);
      ("flows", Obs.Json.Int flows);
      ("digests", Obs.Json.Int digests);
      ("segments", Obs.Json.Int segments);
      ("log_bytes", Obs.Json.Int log_bytes);
      ("offline_query",
       Obs.Json.Obj
         [ ("n", Obs.Json.Int query_n);
           ("granularity",
            Obs.Json.Str
              (match query_granularity with
              | Core.Config.As_level -> "domain"
              | Core.Config.Node_level -> "node"));
           ("queries", Obs.Json.Int (List.length latencies));
           ("p50_seconds", Obs.Json.Float p50);
           ("p99_seconds", Obs.Json.Float p99) ]) ]

(* --- Figures 3 and 4 ---------------------------------------------------- *)

let figures (o : options) : Core.Bestpath_workload.point list * Obs.Json.t =
  hr "Figures 3 & 4: Best-Path query, three configurations";
  phase_reset ();
  Printf.printf
    "workload: all-pairs Best-Path; random topologies, avg outdegree 3, link costs 1..10\n\
     parameters: N in {%s}, %d run(s) per size, %d-bit RSA\n\
     (completion time is the virtual-clock quiescence time; see EXPERIMENTS.md)\n"
    (String.concat "," (List.map string_of_int o.ns))
    o.runs o.rsa_bits;
  let opts =
    { Core.Bestpath_workload.default_opts with ro_runs = o.runs; ro_rsa_bits = o.rsa_bits }
  in
  let points = ref [] in
  List.iter
    (fun n ->
      let t0 = Unix.gettimeofday () in
      let ps = Core.Bestpath_workload.measure_n ~opts n in
      points := !points @ ps;
      Printf.printf "  measured N=%-3d (%.0fs real)\n%!" n (Unix.gettimeofday () -. t0))
    o.ns;
  let points = !points in
  print_newline ();
  print_string
    (Core.Metrics.figure_table points
       ~metric:(fun p -> p.Core.Bestpath_workload.p_sim_seconds)
       ~title:"Figure 3: query completion time (s)");
  print_newline ();
  print_string
    (Core.Metrics.figure_table points
       ~metric:(fun p -> p.Core.Bestpath_workload.p_megabytes)
       ~title:"Figure 4: bandwidth utilization (MB)");
  hr "Section 6 overhead summary";
  Printf.printf "paper reports: SeNDLog vs NDLog avg +53%% time / +36%% bandwidth (at N=100: +44%% / +17%%)\n";
  Printf.printf "               SeNDLogProv vs SeNDLog avg +41%% time / +54%% bandwidth (at N=100: +6%% / +10%%)\n\n";
  (match Core.Metrics.overhead points ~base:"NDLog" ~variant:"SeNDLog" with
  | Some ov -> Printf.printf "measured:      %s\n" (Core.Metrics.overhead_to_string ov)
  | None -> ());
  (match Core.Metrics.overhead points ~base:"SeNDLog" ~variant:"SeNDLogProv" with
  | Some ov -> Printf.printf "               %s\n" (Core.Metrics.overhead_to_string ov)
  | None -> ());
  let check name b = Printf.printf "  [%s] %s\n" (if b then "ok" else "MISS") name in
  check "ordering NDLog <= SeNDLog <= SeNDLogProv (time)"
    (Core.Metrics.ordering_holds points ~metric:(fun p -> p.p_sim_seconds));
  check "ordering NDLog <= SeNDLog <= SeNDLogProv (bandwidth)"
    (Core.Metrics.ordering_holds points ~metric:(fun p -> p.p_megabytes));
  check "SeNDLog relative bandwidth overhead decreases with N"
    (Core.Metrics.overhead_decreases points ~base:"NDLog" ~variant:"SeNDLog"
       ~metric:(fun p -> p.p_megabytes));
  check "SeNDLogProv relative time overhead decreases with N"
    (Core.Metrics.overhead_decreases points ~base:"SeNDLog" ~variant:"SeNDLogProv"
       ~metric:(fun p -> p.p_sim_seconds));
  phase_metrics "figures";
  (* Snapshot before the next phase resets the shared registry. *)
  (points, Obs.Metrics.to_json Obs.Metrics.default)

(* --- Ablation A: local vs distributed provenance ------------------------- *)

let ablation_local_vs_distributed (o : options) =
  hr "Ablation A (Sections 4.1, 5): local vs distributed provenance";
  phase_reset ();
  Printf.printf
    "local evaluates expressions at each node and ships them with every tuple;\n\
     distributed stores per-hop pointers and computes expressions reactively, at\n\
     query time. N=20 Best-Path, then traceback of every bestPath at n0.\n\n";
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:2008) ~n:20 () in
  let directory =
    Core.Bestpath_workload.shared_directory ~rsa_bits:o.rsa_bits topo.Net.Topology.nodes
  in
  Printf.printf "%-12s %14s %14s %12s %16s %15s %14s\n" "mode" "completion (s)"
    "wire prov (B)" "expr (B)" "online store (B)" "traceback msgs" "traceback (B)";
  List.iter
    (fun (name, prov) ->
      let cfg = { Core.Config.sendlog_prov with rsa_bits = o.rsa_bits; prov } in
      let t =
        Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:1) ~cfg ~topo
          ~program:(Ndlog.Programs.best_path ()) ()
      in
      Core.Runtime.install_links t;
      let r = Core.Runtime.run t in
      let stats = Core.Runtime.stats t in
      let storage = Core.Runtime.total_storage t in
      let tb_msgs = ref 0 and tb_bytes = ref 0 in
      List.iter
        (fun tuple ->
          let r = Core.Traceback.query t ~at:"n0" tuple in
          tb_msgs := !tb_msgs + r.cost.remote_queries;
          tb_bytes := !tb_bytes + r.cost.query_bytes)
        (Core.Runtime.query t ~at:"n0" "bestPath");
      Printf.printf "%-12s %14.3f %14d %12d %16d %15d %14d\n" name r.sim_seconds
        stats.bytes_provenance storage.st_online_expr_bytes
        (storage.st_online_expr_bytes + storage.st_online_pointer_bytes)
        !tb_msgs !tb_bytes)
    [ ("local", Core.Config.Prov_local); ("distributed", Core.Config.Prov_distributed) ];
  Printf.printf
    "\nexpected: local pays on the wire and in expression bytes during execution, and\n\
     its local expression answers a query without messages; distributed ships\n\
     nothing and keeps expressions for base facts only, so a query is the traceback\n\
     walk, which crosses nodes (the paper's trade-off). The walk reads derivation\n\
     records, so it costs the same in both modes.\n"

(* --- Ablation C: sampling and Bloom digests -------------------------------- *)

let ablation_sampling (o : options) =
  hr "Ablation C (Section 5): sampled provenance and Bloom digests";
  phase_reset ();
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:2010) ~n:20 () in
  let directory =
    Core.Bestpath_workload.shared_directory ~rsa_bits:o.rsa_bits topo.Net.Topology.nodes
  in
  Printf.printf "%-12s %18s %16s\n" "1-in-K" "wire prov (B)" "expr bytes";
  List.iter
    (fun k ->
      let cfg =
        Core.Config.with_prov_sample { Core.Config.sendlog_prov with rsa_bits = o.rsa_bits } k
      in
      let t =
        Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:1) ~cfg ~topo
          ~program:(Ndlog.Programs.best_path ()) ()
      in
      Core.Runtime.install_links t;
      ignore (Core.Runtime.run t);
      let stats = Core.Runtime.stats t in
      let storage = Core.Runtime.total_storage t in
      Printf.printf "%-12d %18d %16d\n" k stats.bytes_provenance
        storage.st_online_expr_bytes)
    [ 1; 2; 10; 100 ];
  (* ForNet-style digests: storage per packet vs full record.  Every
     packet crosses all 5 routers, so their one-epoch digests are
     identical: one filter gives the false-positive rate, and the
     digest column is 5 of them. *)
  Printf.printf "\nForNet Bloom digests (10000 packets through 5 routers):\n";
  Printf.printf "%-12s %14s %14s %12s\n" "fp target" "digest (B)" "exact (B)" "observed fp";
  List.iter
    (fun fp_rate ->
      let digest = Bloom.create_for ~expected:10_000 ~fp_rate in
      let exact_bytes = ref 0 in
      for i = 0 to 9_999 do
        let key = Printf.sprintf "pkt-%d" i in
        Bloom.add digest key;
        exact_bytes := !exact_bytes + (5 * (String.length key + 8))
      done;
      let fps = ref 0 in
      let probes = 5000 in
      for i = 0 to probes - 1 do
        if Bloom.mem digest (Printf.sprintf "absent-%d" i) then incr fps
      done;
      Printf.printf "%-12g %14d %14d %12.4f\n" fp_rate (5 * Bloom.size_bytes digest)
        !exact_bytes
        (float_of_int !fps /. float_of_int probes))
    [ 0.1; 0.01; 0.001 ];
  (* IP-traceback sampling: packets needed vs marking probability *)
  Printf.printf "\nIP-traceback marking (path of 8 routers):\n";
  Printf.printf "%-12s %18s\n" "mark prob" "packets to recover";
  let path = List.init 8 (fun i -> Printf.sprintf "r%d" i) in
  List.iter
    (fun p ->
      let sim =
        Core.Forensics.simulate_traceback (Crypto.Rng.create ~seed:4) ~path
          ~mark_probability:p ~n_packets:2_000_000
      in
      Printf.printf "%-12g %18s\n" p
        (match sim.ts_packets_needed with
        | Some k -> string_of_int k
        | None -> "not recovered"))
    [ 0.04; 0.001; 0.00005 (* the paper's 1/20,000 *) ]

(* --- Ablation D: granularity ------------------------------------------------ *)

let ablation_granularity (o : options) =
  hr "Ablation D (Section 5): provenance granularity (node vs AS)";
  phase_reset ();
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:2011) ~n:40 () in
  let directory =
    Core.Bestpath_workload.shared_directory ~rsa_bits:o.rsa_bits topo.Net.Topology.nodes
  in
  Printf.printf "%-12s %16s %14s %18s\n" "granularity" "distinct keys" "expr bytes" "wire prov (B)";
  List.iter
    (fun (name, granularity) ->
      let cfg = { Core.Config.sendlog_prov with rsa_bits = o.rsa_bits; granularity } in
      let t =
        Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:1) ~cfg ~topo
          ~program:(Ndlog.Programs.best_path ()) ()
      in
      Core.Runtime.install_links t;
      ignore (Core.Runtime.run t);
      let stats = Core.Runtime.stats t in
      let storage = Core.Runtime.total_storage t in
      let keys =
        List.concat_map
          (fun (at, tu) ->
            Provenance.Prov_expr.bases (Core.Runtime.provenance_of t ~at tu))
          (Core.Runtime.query_all t "bestPath")
        |> List.sort_uniq compare
      in
      Printf.printf "%-12s %16d %14d %18d\n" name (List.length keys)
        storage.st_online_expr_bytes stats.bytes_provenance)
    [ ("node", Core.Config.Node_level); ("AS", Core.Config.As_level) ];
  Printf.printf
    "\nexpected: AS granularity collapses keys (~1 per 10 nodes) and shrinks\n\
     expressions, at the price of only AS-level attribution.\n"

(* --- Bechamel micro-benchmarks ------------------------------------------------ *)

let micro (o : options) =
  hr "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let rng = Crypto.Rng.create ~seed:99 in
  let kp = Crypto.Rsa.generate rng ~bits:o.rsa_bits in
  let msg = String.make 256 'm' in
  let signature = Crypto.Rsa.sign kp.private_ msg in
  let ctx = Provenance.Condense.create_ctx () in
  let deep_expr =
    (* a 12-principal redundant expression *)
    let base i = Provenance.Prov_expr.base (Printf.sprintf "p%d" i) in
    List.fold_left
      (fun acc i -> Provenance.Prov_expr.plus acc (Provenance.Prov_expr.times (base i) acc))
      (base 0)
      (List.init 11 (fun i -> i + 1))
  in
  let path_args () =
    [ Engine.Value.V_str "n1"; Engine.Value.V_str "n2";
      Engine.Value.V_list (List.init 8 (fun i -> Engine.Value.V_str (Printf.sprintf "n%d" i)));
      Engine.Value.V_int 42 ]
  in
  let tuple = Engine.Tuple.make "path" (path_args ()) in
  (* a table of 1,000 tuples holding [tuple], probed with a
     structurally equal copy built from fresh values *)
  let table = Engine.Tuple.Table.create 1024 in
  for i = 1 to 999 do
    Engine.Tuple.Table.replace table
      (Engine.Tuple.make "path" [ Engine.Value.V_str "n1"; Engine.Value.V_int i ])
      ()
  done;
  Engine.Tuple.Table.replace table tuple ();
  let copy = Engine.Tuple.make "path" (path_args ()) in
  let tests =
    [ Test.make ~name:"sha256 (256B)" (Staged.stage (fun () -> Crypto.Sha256.digest msg));
      Test.make
        ~name:(Printf.sprintf "rsa-%d sign" o.rsa_bits)
        (Staged.stage (fun () -> Crypto.Rsa.sign kp.private_ msg));
      Test.make
        ~name:(Printf.sprintf "rsa-%d verify" o.rsa_bits)
        (Staged.stage (fun () -> Crypto.Rsa.verify kp.public ~signature msg));
      Test.make ~name:"hmac-sha256" (Staged.stage (fun () -> Crypto.Hmac.sha256 ~key:"k" msg));
      Test.make ~name:"bdd condense (12 keys)"
        (Staged.stage (fun () -> Provenance.Condense.condense ctx deep_expr));
      Test.make ~name:"prov to_wire"
        (Staged.stage (fun () -> Provenance.Condense.to_wire ctx deep_expr));
      Test.make ~name:"tuple encode"
        (Staged.stage (fun () -> Net.Wire.encode_tuple tuple));
      Test.make ~name:"tuple decode"
        (Staged.stage
           (let bytes = Net.Wire.encode_tuple tuple in
            fun () -> Net.Wire.decode_tuple bytes));
      Test.make ~name:"tuple make"
        (Staged.stage
           (let args = path_args () in
            fun () -> Engine.Tuple.make "path" args));
      Test.make ~name:"tuple hash" (Staged.stage (fun () -> Engine.Tuple.hash tuple));
      Test.make ~name:"tuple table find"
        (Staged.stage (fun () -> Engine.Tuple.Table.find_opt table copy)) ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None ())
          [ instance ] test
      in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-24s %12.1f ns/op\n" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests

(* --- main ------------------------------------------------------------------------ *)

let () =
  let o = parse_args () in
  Printf.printf "Provenance-aware Secure Networks: benchmark harness\n";
  Printf.printf "(reproduces the evaluation of Zhou, Cronin, Loo - ICDE 2008)\n";
  if o.micro_only then micro o
  else begin
    let points, figure_metrics = figures o in
    let forensics_ablation = forensics_ablation o in
    let sweep_n1000 = if o.n1000 then sweep_n1000 o else Obs.Json.Null in
    write_results_json o points ~figure_metrics ~forensics_ablation ~sweep_n1000;
    if not o.figures_only then begin
      ablation_local_vs_distributed o;
      phase_metrics "ablation A";
      ablation_sampling o;
      phase_metrics "ablation C";
      ablation_granularity o;
      phase_metrics "ablation D";
      if not o.skip_micro then micro o
    end
  end;
  print_newline ();
  print_endline "bench done."
