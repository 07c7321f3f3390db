(* The benchmark's workloads and the closed loop that measures them.

   Every workload is Best-Path (the paper's Section 6 query) over
   random topologies drawn from the workload seed.  A client drives
   one closed loop: each operation perturbs the network (a fresh
   start, or one link failing or coming back) and the next begins only
   once the network is quiescent again.  A cycle runs the operations
   of every topology of the seed once, each topology's episode between
   two calibration probes (see [Calib]); a run repeats whole cycles
   for the time it is given.  A per-operation series is reported as
   the mean over each cycle's operations, then the median over
   cycles, so the measured inputs do not depend on how fast the host
   was.

   The program only ever sees link facts and calls to its public
   functions; everything here is measured from outside. *)

type kind =
  | Converge  (** one operation = a from-scratch convergence of one topology *)
  | Linkfail
      (** one operation = the re-convergence after one physical link
          fails or is restored; every link of every topology is failed
          and restored, in sorted order *)

type spec = {
  name : string;
  kind : kind;
  cfg : Core.Config.t;
  n : int;
  topologies : int; (* topologies per cycle, drawn from the seed *)
  queries : int; (* traceback queries per topology: live (Converge) or offline (Linkfail) *)
}

let all : spec list =
  [ { name = "converge-ndlog-n30";
      kind = Converge;
      cfg = Core.Config.ndlog;
      n = 30;
      topologies = 26;
      queries = 0 };
    { name = "converge-sendlog-n16";
      kind = Converge;
      cfg = Core.Config.sendlog;
      n = 16;
      topologies = 22;
      queries = 0 };
    { name = "converge-prov-n16";
      kind = Converge;
      cfg = Core.Config.sendlog_prov;
      n = 16;
      topologies = 18;
      queries = 110 };
    { name = "linkfail-prov-n10";
      kind = Linkfail;
      cfg = Core.Config.sendlog_prov;
      n = 10;
      topologies = 12;
      queries = 150 };
    { name = "sharded-as-n20";
      kind = Converge;
      cfg =
        Core.Config.with_granularity
          (Core.Config.with_shards Core.Config.sendlog_prov 0)
          Core.Config.As_level;
      n = 20;
      topologies = 18;
      queries = 0 } ]

let find (name : string) : spec option = List.find_opt (fun s -> s.name = name) all

(* The same workload on one small topology: the untimed warm-up and
   the selftest.  The sharded workload keeps 20 nodes, because the
   topology generator puts ten nodes in each AS and one AS would
   leave it on the single-queue engine. *)
let small (s : spec) : spec =
  { s with
    n = (if s.cfg.Core.Config.shards = 1 then 8 else 20);
    topologies = 1;
    queries = min s.queries 20 }

(* --- helpers --------------------------------------------------------------- *)

let clock (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf (path : string) : unit =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p (path : string) : unit =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Topologies and their oracles.  The generator is seeded with
   [seed + n] as the paper sweep does, and draws the topologies of a
   cycle one after another, so two workloads of the same size share
   their topologies. *)
let topologies (s : spec) ~(seed : int) : (Net.Topology.t * Oracle.t) array =
  let rng = Crypto.Rng.create ~seed:(seed + s.n) in
  Array.init s.topologies (fun _ ->
      let topo = Net.Topology.random rng ~n:s.n () in
      (topo, Oracle.build topo))

let key_directory (s : spec) ~(seed : int) (topo : Net.Topology.t) : Sendlog.Principal.directory =
  Sendlog.Principal.directory_for (Crypto.Rng.create ~seed) ~rsa_bits:s.cfg.Core.Config.rsa_bits
    topo.Net.Topology.nodes

(* The crypto and database layers create their metric handles as
   module-level lazy values on first use.  On the sharded engine that
   first use falls inside a parallel window, and OCaml 5 raises
   [CamlinternalLazy.Undefined] when two domains force one lazy value at
   once (about one sharded process in a hundred).  One call of each
   instrumented function here, on the main domain, forces them all
   before any runtime starts. *)
let force_metric_handles () : unit =
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:1) ~rsa_bits:512 [ "a" ]
  in
  let bytes = "metric handles" in
  let sign () =
    Sendlog.Auth.make_auth Sendlog.Auth.Auth_rsa (Sendlog.Principal.find_exn directory "a") bytes
  in
  ignore (sign ()); (* a signature-cache miss *)
  let auth = sign () in (* and a hit *)
  ignore
    (Sendlog.Auth.verify_batch Sendlog.Auth.Auth_rsa directory
       [| (auth, Net.Arena.of_string bytes) |]);
  let db = Engine.Db.create () in
  let tu = Engine.Tuple.make "r" [ Engine.Value.V_int 1 ] in
  ignore (Engine.Db.insert db ~now:0.0 tu);
  ignore (Engine.Db.probe db "r" ~cols:[ 0 ] ~key:[ Engine.Value.V_int 1 ]); (* index build, probe, hit *)
  ignore (Engine.Db.probe db "r" ~cols:[] ~key:[]) (* full scan *)

(* --- one cycle ---------------------------------------------------------- *)

(* Instruments of a traced cycle: bench-side spans around every public
   call, registry deltas per operation, and the captured traffic. *)
type probe = {
  tracer : Obs.Trace.t;
  mutable acc : Layers.acc; (* the current episode's *)
  mu : Mutex.t;
  mutable in_op : bool;
  mutable captured : Net.Wire.message list; (* newest first *)
  mutable n_captured : int;
  mutable runtime_spans : int;
  mutable runtime_dropped : int;
}

let capture_limit = 20_000

type env = {
  spec : spec;
  seed : int;
  directory : Sendlog.Principal.directory;
  scratch : string; (* provenance logs live here *)
  probe : probe option;
}

(* What an episode or a cycle observed.  Wall times are in reference
   seconds once an episode is folded into its cycle. *)
type tally = {
  mutable walls : float list; (* per operation *)
  mutable sims : float list; (* per operation, virtual seconds *)
  mutable bytes : float list; (* per operation, bytes shipped *)
  mutable scratch_walls : float list; (* Linkfail: first convergence per topology *)
  mutable latencies : float list; (* traceback queries *)
  mutable heaps : float list; (* first cycle: live heap MB once converged *)
  mutable prov_divergent : int; (* first cycle, Linkfail: see [linkfail_topology] *)
  mutable attempted : int;
  mutable failed : int;
  mutable failure : string option;
}

let new_tally () : tally =
  { walls = [];
    sims = [];
    bytes = [];
    scratch_walls = [];
    latencies = [];
    heaps = [];
    prov_divergent = 0;
    attempted = 0;
    failed = 0;
    failure = None }

let fail (tl : tally) (count : int) (msg : string) : unit =
  if count > 0 then begin
    tl.failed <- tl.failed + count;
    if tl.failure = None then tl.failure <- Some msg
  end

let merge_tally ~(scale : float) ~(into : tally) (e : tally) : unit =
  let scaled xs = List.map (fun x -> x *. scale) xs in
  into.walls <- scaled e.walls @ into.walls;
  into.sims <- e.sims @ into.sims;
  into.bytes <- e.bytes @ into.bytes;
  into.scratch_walls <- scaled e.scratch_walls @ into.scratch_walls;
  into.latencies <- scaled e.latencies @ into.latencies;
  into.heaps <- e.heaps @ into.heaps;
  into.prov_divergent <- into.prov_divergent + e.prov_divergent;
  into.attempted <- into.attempted + e.attempted;
  Option.iter (fail into e.failed) e.failure

let span (env : env) (name : string) (f : unit -> 'a) : 'a =
  match env.probe with Some p -> Obs.Trace.with_span p.tracer name f | None -> f ()

let note (env : env) (name : string) (v : float) : unit =
  match env.probe with Some p -> Layers.add p.acc name v | None -> ()

(* One topology's episode, between two calibration probes: it records
   into fresh tallies, which are then folded into the cycle's with
   every wall time scaled to reference seconds. *)
let episode (env : env) (tl : tally) (f : tally -> unit) : unit =
  let local = new_tally () in
  let outer =
    Option.map
      (fun p ->
        let a = p.acc in
        p.acc <- Layers.create_acc ();
        a)
      env.probe
  in
  let (), scale = Calib.scaled (fun () -> f local) in
  (match (env.probe, outer) with
  | Some p, Some into ->
    Layers.merge ~scale ~into p.acc;
    p.acc <- into
  | _ -> ());
  merge_tally ~scale ~into:tl local

let live_heap_mb () : float =
  float_of_int (Gc.stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8) /. 1e6

let create (env : env) ~(cfg : Core.Config.t) ~(k : int) (topo : Net.Topology.t) :
    Core.Runtime.t =
  let rt =
    span env "Runtime.create" (fun () ->
        Core.Runtime.create ~directory:env.directory
          ~rng:(Crypto.Rng.create ~seed:(env.seed + k))
          ~cfg ~topo ~program:(Ndlog.Programs.best_path ()) ())
  in
  (match env.probe with
  | Some p ->
    Layers.record_max p.acc "sim.shards#max" (float_of_int (Core.Runtime.shard_count rt));
    ignore (Core.Runtime.enable_tracing rt);
    Core.Runtime.set_message_tap rt (fun _ m ->
        Mutex.lock p.mu;
        if p.in_op then begin
          if m.Net.Wire.msg_kind = Net.Wire.K_retract then
            Layers.add p.acc "dred.retract_msgs" 1.0;
          if p.n_captured < capture_limit then begin
            p.captured <- m :: p.captured;
            p.n_captured <- p.n_captured + 1
          end
        end;
        Mutex.unlock p.mu)
  | None -> ());
  span env "Runtime.install_links" (fun () -> Core.Runtime.install_links rt);
  rt

(* Release a runtime, keeping its tracer's span counts. *)
let release (env : env) (rt : Core.Runtime.t) : unit =
  (match (env.probe, Core.Runtime.tracer rt) with
  | Some p, Some tr ->
    p.runtime_spans <- p.runtime_spans + List.length (Obs.Trace.finished_spans tr);
    p.runtime_dropped <- p.runtime_dropped + Obs.Trace.dropped tr
  | _ -> ());
  Core.Runtime.shutdown rt

let queue_depth () = Obs.Metrics.gauge Obs.Metrics.default "sim.queue_depth_max"

(* One closed-loop operation: [f] drives [rt] to quiescence. *)
let operation (env : env) (tl : tally) (rt : Core.Runtime.t) (f : unit -> unit) : unit =
  let sim0 = Core.Runtime.now rt in
  let bytes0 = (Core.Runtime.stats rt).Net.Stats.bytes_total in
  let (), wall =
    match env.probe with
    | None -> clock f
    | Some p ->
      Obs.Metrics.set (queue_depth ()) 0.0;
      p.in_op <- true;
      let r = Layers.record p.acc (fun () -> clock f) in
      p.in_op <- false;
      Layers.record_max p.acc "sim.queue_depth_max#max" (Obs.Metrics.gauge_value (queue_depth ()));
      Layers.add p.acc "ops" 1.0;
      Layers.add p.acc "ops_wall_s" (snd r);
      r
  in
  tl.walls <- wall :: tl.walls;
  tl.sims <- (Core.Runtime.now rt -. sim0) :: tl.sims;
  tl.bytes <- float_of_int ((Core.Runtime.stats rt).Net.Stats.bytes_total - bytes0) :: tl.bytes

let run_to_quiescence (env : env) (rt : Core.Runtime.t) : Core.Runtime.run_result =
  span env "Runtime.run" (fun () -> Core.Runtime.run rt)

(* Every shipped message is an attempt; a message that failed
   verification, was dropped as forged, or ran out of retries is a
   failure. *)
let check_traffic (tl : tally) (rt : Core.Runtime.t) : unit =
  let st = Core.Runtime.stats rt in
  tl.attempted <- tl.attempted + st.Net.Stats.messages;
  fail tl
    (st.Net.Stats.verification_failures + st.Net.Stats.dropped_forged
   + st.Net.Stats.retry_exhausted)
    "a message failed verification, was dropped as forged, or ran out of retries"

let check_oracle (env : env) (tl : tally) (oracle : Oracle.t) (rt : Core.Runtime.t) : unit =
  let v = span env "Oracle.check" (fun () -> Oracle.check oracle rt) in
  tl.attempted <- tl.attempted + v.Oracle.checked;
  fail tl v.Oracle.mismatches (Option.value v.Oracle.example ~default:"oracle mismatch")

let traceback (env : env) (tl : tally) (name : string) (f : unit -> Core.Traceback.result) :
    unit =
  let r, dt = clock (fun () -> span env name f) in
  tl.latencies <- dt :: tl.latencies;
  tl.attempted <- tl.attempted + 1;
  note env "traceback.nodes_visited" (float_of_int r.Core.Traceback.cost.Core.Traceback.nodes_visited);
  if r.Core.Traceback.partial then begin
    note env "traceback.partial" 1.0;
    fail tl 1 (name ^ " returned a partial derivation tree")
  end

(* Per-topology readings once the network has converged. *)
let note_converged (env : env) (tl : tally) ~(first : bool) (rt : Core.Runtime.t) : unit =
  note env "topologies" 1.0;
  note env "prov.online_expr_bytes"
    (float_of_int (Core.Runtime.total_storage rt).Core.Prov_store.st_online_expr_bytes);
  if first then tl.heaps <- live_heap_mb () :: tl.heaps

let converge_topology (env : env) (tl : tally) ~(k : int) ~(first : bool)
    ((topo, oracle) : Net.Topology.t * Oracle.t) : unit =
  let rt = create env ~cfg:env.spec.cfg ~k topo in
  operation env tl rt (fun () -> ignore (run_to_quiescence env rt));
  check_oracle env tl oracle rt;
  check_traffic tl rt;
  note_converged env tl ~first rt;
  if env.spec.queries > 0 then begin
    let answers = Array.of_list (Core.Runtime.query_all rt "bestPath") in
    let rng = Crypto.Rng.create ~seed:((env.seed * 7919) + k) in
    for _ = 1 to env.spec.queries do
      let at, tu = answers.(Crypto.Rng.int rng (Array.length answers)) in
      traceback env tl "Traceback.query" (fun () -> Core.Traceback.query rt ~at tu)
    done
  end;
  release env rt

let snapshot_rels = [ "bestPath"; "bestPathCost"; "path" ]

let linkfail_topology (env : env) (tl : tally) ~(k : int) ~(first : bool)
    ((topo, oracle) : Net.Topology.t * Oracle.t) : unit =
  let dir = Filename.concat env.scratch (Printf.sprintf "log-%d" k) in
  rm_rf dir;
  let rt = create env ~cfg:(Core.Config.with_prov_log env.spec.cfg (Some dir)) ~k topo in
  let r0 = run_to_quiescence env rt in
  tl.scratch_walls <- r0.Core.Runtime.wall_seconds :: tl.scratch_walls;
  let retracted0 = Core.Runtime.tuples_retracted rt in
  List.iter
    (fun (src, dst) ->
      operation env tl rt (fun () ->
          span env "Runtime.link_down" (fun () -> Core.Runtime.link_down rt ~src ~dst);
          ignore (run_to_quiescence env rt));
      operation env tl rt (fun () ->
          span env "Runtime.link_up" (fun () -> Core.Runtime.link_up rt ~src ~dst);
          ignore (run_to_quiescence env rt)))
    (List.sort compare
       (List.map
          (fun (l : Net.Topology.link) -> (l.Net.Topology.l_src, l.Net.Topology.l_dst))
          topo.Net.Topology.links));
  note env "dred.retracted" (float_of_int (Core.Runtime.tuples_retracted rt - retracted0));
  let (), sync_s =
    clock (fun () -> span env "Runtime.sync_prov_log" (fun () -> Core.Runtime.sync_prov_log rt))
  in
  check_oracle env tl oracle rt;
  check_traffic tl rt;
  note_converged env tl ~first rt;
  let after_flaps =
    if first then
      Some
        ( List.map (Core.Bestpath_workload.fixpoint_snapshot rt) snapshot_rels,
          Core.Bestpath_workload.prov_snapshot rt "bestPath" )
    else None
  in
  (match Core.Runtime.prov_log rt with
  | Some log ->
    note env "log.records" (float_of_int (Store.Prov_log.record_count log));
    note env "log.bytes" (float_of_int (Store.Prov_log.bytes_on_disk log));
    note env "log.segments" (float_of_int (Store.Prov_log.segment_count log))
  | None -> ());
  note env "log.sync_s" sync_s;
  (* Offline queries ask for routes that were live when the log was
     synced, at the node holding them: the log must answer each one
     completely from disk. *)
  let answers =
    Array.of_list
      (List.map
         (fun (at, tu) -> (at, Engine.Tuple.identity tu))
         (Core.Runtime.query_all rt "bestPath"))
  in
  release env rt;
  let log, recover_s =
    clock (fun () -> span env "Prov_log.open_log" (fun () -> Store.Prov_log.open_log ~dir ()))
  in
  note env "log.recover_s" recover_s;
  let rng = Crypto.Rng.create ~seed:((env.seed * 7919) + k) in
  for _ = 1 to env.spec.queries do
    let at, ident = answers.(Crypto.Rng.int rng (Array.length answers)) in
    traceback env tl "Traceback.offline_query" (fun () ->
        Core.Traceback.offline_query log ~at ~ident ())
  done;
  Store.Prov_log.close log;
  rm_rf dir;
  match after_flaps with
  | None -> ()
  | Some (fixpoints, prov) ->
    (* After every link has failed and come back, each relation must
       hold exactly what a from-scratch run on the same topology
       derives.  The provenance of a few routes can still differ: the
       incremental pass may drop an equal-cost alternative derivation
       of the MIN aggregate that the from-scratch run keeps.  That is
       counted, not failed, until the program maintains it. *)
    let fresh = create env ~cfg:env.spec.cfg ~k topo in
    ignore (run_to_quiescence env fresh);
    List.iter2
      (fun rel fixpoint ->
        tl.attempted <- tl.attempted + List.length fixpoint;
        if fixpoint <> Core.Bestpath_workload.fixpoint_snapshot fresh rel then
          fail tl 1 (rel ^ " after every flap differs from a from-scratch run"))
      snapshot_rels fixpoints;
    let scratch_prov = Core.Bestpath_workload.prov_snapshot fresh "bestPath" in
    if List.length scratch_prov = List.length prov then
      tl.prov_divergent <-
        tl.prov_divergent
        + List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 prov scratch_prov;
    release env fresh

let cycle (env : env) ~(first : bool) (topos : (Net.Topology.t * Oracle.t) array) : tally =
  let tl = new_tally () in
  span env "cycle" (fun () ->
      Array.iteri
        (fun k t ->
          episode env tl (fun local ->
              match env.spec.kind with
              | Converge -> converge_topology env local ~k ~first t
              | Linkfail -> linkfail_topology env local ~k ~first t))
        topos);
  tl

(* Whole cycles until the next one would overrun [seconds]; at least
   [min_cycles]. *)
let repeat ~(seconds : float) ~(min_cycles : int) (f : int -> 'a) : 'a list =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    let acc = f i :: acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    let per_cycle = elapsed /. float_of_int (i + 1) in
    if i + 1 < min_cycles || elapsed +. per_cycle <= seconds then go (i + 1) acc
    else List.rev acc
  in
  go 0 []

(* A per-operation series as a run reports it: the mean over each
   cycle's operations, then the median over cycles.  For link failures
   the mean keeps the retraction storms a few ring links cause, as the
   sum of all re-convergences would. *)
let over_cycles (f : tally -> float list) (cycles : tally list) : float =
  Summary.median (List.map (fun c -> Summary.mean (f c)) cycles)

(* --- set-up ----------------------------------------------------------- *)

let setup_reps = 5

(* Key provisioning + [Runtime.create] + [install_links], repeated on
   fresh keys; returns the keys of the last repetition and each
   repetition's (keygen, create) reference seconds. *)
let setup (s : spec) ~(seed : int) ~(scratch : string) (topo : Net.Topology.t) :
    Sendlog.Principal.directory * (float * float) list =
  let cfg =
    match s.kind with
    | Converge -> s.cfg
    | Linkfail -> Core.Config.with_prov_log s.cfg (Some (Filename.concat scratch "setup"))
  in
  let rec go r dir acc =
    if r > setup_reps then (Option.get dir, List.rev acc)
    else begin
      let (d, keygen, create), scale =
        Calib.scaled (fun () ->
            let d, keygen = clock (fun () -> key_directory s ~seed:((seed * 1009) + r) topo) in
            let rt, create =
              clock (fun () ->
                  let rt =
                    Core.Runtime.create ~directory:d ~rng:(Crypto.Rng.create ~seed) ~cfg ~topo
                      ~program:(Ndlog.Programs.best_path ()) ()
                  in
                  Core.Runtime.install_links rt;
                  rt)
            in
            Core.Runtime.shutdown rt;
            (d, keygen, create))
      in
      rm_rf (Filename.concat scratch "setup");
      go (r + 1) (Some d) ((keygen *. scale, create *. scale) :: acc)
    end
  in
  go 1 None []

(* --- a run -------------------------------------------------------------- *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
}

type outcome = {
  attempted : int;
  failed : int;
  failure : string option;
  cycles : int;
  topologies_per_cycle : int;
  metrics : metric list;
  trace_json : string option; (* Chrome trace of the bench spans (traced runs) *)
  layers_json : Obs.Json.t option;
}

let m (m_name : string) (m_unit : string) (m_value : float) : metric = { m_name; m_value; m_unit }

let replay_limit = 1500

(* Per-layer metrics of the traced cycles; see README.md for what each
   should move. *)
let layer_metrics (s : spec) (p : probe) (replay : Layers.replay) ~(traced : tally list)
    ~(untraced : tally list) ~(keygen : float) ~(create : float) : metric list =
  let g = Layers.get p.acc in
  let ops = g "ops" and wall = g "ops_wall_s" in
  let per_op x = Summary.ratio x ops in
  let eval_s = g "eval.rule_seconds" and handler = g "runtime.handler_compute_seconds" in
  let sign_s = g "crypto.sign_seconds" and verify_s = g "crypto.verify_seconds" in
  let messages = g "wire.messages" in
  let pct x = 100.0 *. Summary.ratio x wall in
  let codec_per_msg = (replay.Layers.encode_us +. replay.Layers.decode_us) /. 1e6 in
  let prov_per_block =
    Summary.ratio (replay.Layers.of_wire_s +. replay.Layers.to_wire_s)
      (float_of_int replay.Layers.blocks)
  in
  let block_share =
    Summary.ratio (float_of_int replay.Layers.blocks) (float_of_int replay.Layers.messages)
  in
  let codec = messages *. (codec_per_msg +. (block_share *. prov_per_block)) in
  let covered = eval_s +. sign_s +. verify_s +. (wall -. handler) +. codec in
  let flaps = List.concat_map (fun c -> c.walls) traced in
  let linkfail = s.kind = Linkfail in
  let scratch = Summary.median (List.concat_map (fun c -> c.scratch_walls) traced) in
  let latencies = List.concat_map (fun c -> c.latencies) traced in
  let topologies = g "topologies" in
  let per_topology x = Summary.ratio x topologies in
  let rate count seconds = Summary.ratio count seconds in
  let conv cycles = over_cycles (fun c -> c.walls) cycles in
  [ m "engine.eval_s" "s" (per_op eval_s);
    m "engine.derivations" "count" (per_op (g "eval.derivations"));
    m "engine.useful_ratio" "ratio" (Summary.ratio (g "eval.inserted") (g "eval.derivations"));
    m "engine.index_hit_ratio" "ratio" (Summary.ratio (g "db.index_hits") (g "db.index_probes"));
    m "runtime.handler_cpu_s" "s" (per_op handler);
    m "runtime.residual_s" "s" (per_op (handler -. eval_s -. sign_s -. verify_s));
    m "sim.outside_handler_s" "s" (per_op (wall -. handler));
    m "sim.events" "count" (per_op (g "sim.events_processed"));
    m "sim.queue_depth_max" "count" (g "sim.queue_depth_max#max");
    m "sim.shards" "count" (g "sim.shards#max");
    m "crypto.sign_n" "count" (per_op (g "crypto.sign_seconds#count"));
    m "crypto.verify_n" "count" (per_op (g "crypto.verify_seconds#count"));
    m "crypto.sign_pct" "%" (pct sign_s);
    m "crypto.verify_pct" "%" (pct verify_s);
    m "crypto.sign_cache_hit_ratio" "ratio"
      (Summary.ratio (g "crypto.sign_cache_hits")
         (g "crypto.sign_cache_hits" +. g "crypto.sign_cache_misses"));
    m "crypto.sign_replay_us" "us" replay.Layers.sign_us;
    m "crypto.verify_replay_us" "us" replay.Layers.verify_us;
    m "wire.messages" "count" (per_op messages);
    m "wire.auth_bytes" "B" (per_op (g "wire.bytes_auth"));
    m "wire.prov_bytes" "B" (per_op (g "wire.bytes_provenance"));
    m "wire.encode_replay_us" "us" replay.Layers.encode_us;
    m "wire.decode_replay_us" "us" replay.Layers.decode_us;
    m "prov.condense_hit_ratio" "ratio"
      (Summary.ratio (g "prov.condense_hits") (g "prov.condense_hits" +. g "prov.condense_misses"));
    m "prov.block_bytes_per_msg" "B" (Summary.ratio (g "wire.bytes_provenance") messages);
    m "prov.of_wire_per_s" "1/s" (rate (float_of_int replay.Layers.blocks) replay.Layers.of_wire_s);
    m "prov.to_wire_per_s" "1/s" (rate (float_of_int replay.Layers.blocks) replay.Layers.to_wire_s);
    m "prov.online_expr_bytes" "B" (per_topology (g "prov.online_expr_bytes"));
    m "par.batches" "count" (per_op (g "par.batches"));
    m "par.batch_items" "count" (per_op (g "par.batch_items"));
    m "dred.retracted" "count" (per_op (g "dred.retracted"));
    m "dred.rederived" "count" (if linkfail then per_op (g "eval.inserted") else 0.0);
    m "dred.retract_msgs" "count" (per_op (g "dred.retract_msgs"));
    m "dred.prov_divergent" "count"
      (float_of_int (List.fold_left (fun n c -> n + c.prov_divergent) 0 untraced));
    m "dred.flap_vs_scratch" "ratio"
      (if linkfail then Summary.ratio (Summary.median flaps) scratch else 0.0);
    m "dred.flap_tail_ratio" "ratio"
      (if linkfail then
         Summary.ratio (Summary.percentile 0.9 flaps) (Summary.percentile 0.5 flaps)
       else 0.0);
    m "log.records" "count" (per_topology (g "log.records"));
    m "log.bytes" "B" (per_topology (g "log.bytes"));
    m "log.segments" "count" (per_topology (g "log.segments"));
    m "log.sync_mb_per_s" "MB/s" (rate (g "log.bytes" /. 1e6) (g "log.sync_s"));
    m "log.recover_mb_per_s" "MB/s" (rate (g "log.bytes" /. 1e6) (g "log.recover_s"));
    m "traceback.queries_per_s" "1/s"
      (rate (float_of_int (List.length latencies)) (List.fold_left ( +. ) 0.0 latencies));
    m "traceback.p99_over_p50" "ratio"
      (Summary.ratio (Summary.percentile 0.99 latencies) (Summary.percentile 0.5 latencies));
    m "traceback.nodes_visited" "count"
      (Summary.ratio (g "traceback.nodes_visited") (float_of_int (List.length latencies)));
    m "traceback.partial" "count" (g "traceback.partial");
    m "attr.covered_pct" "%" (pct covered);
    m "attr.unattributed_s" "s" (per_op (wall -. covered));
    m "trace.overhead_pct" "%" (100.0 *. (Summary.ratio (conv traced) (conv untraced) -. 1.0));
    m "setup.keygen_s" "s" keygen;
    m "setup.create_s" "s" create ]

let run (s : spec) ~(seed : int) ~(seconds : float) ~(trace : bool) ~(scratch : string) :
    outcome =
  mkdir_p scratch;
  force_metric_handles ();
  Fun.protect
    ~finally:(fun () -> rm_rf scratch)
    (fun () ->
      (* Untimed warm-up on its own small topology and keys. *)
      (let w = small s in
       let topos = topologies w ~seed:(seed + 1) in
       let directory = key_directory w ~seed:(-seed - 1) (fst topos.(0)) in
       ignore (cycle { spec = w; seed; directory; scratch; probe = None } ~first:true topos));
      let topos = topologies s ~seed in
      let directory, setups = setup s ~seed ~scratch (fst topos.(0)) in
      let env = { spec = s; seed; directory; scratch; probe = None } in
      let tally_sum (cycles : tally list) =
        List.fold_left
          (fun (a, f, why) (c : tally) ->
            (a + c.attempted, f + c.failed, match why with None -> c.failure | w -> w))
          (0, 0, None) cycles
      in
      if not trace then begin
        let cycles = repeat ~seconds ~min_cycles:1 (fun i -> cycle env ~first:(i = 0) topos) in
        let attempted, failed, failure = tally_sum cycles in
        { attempted;
          failed;
          failure;
          cycles = List.length cycles;
          topologies_per_cycle = Array.length topos;
          metrics =
            [ m "setup_s" "s" (Summary.median (List.map (fun (k, c) -> k +. c) setups));
              m "converge_s" "s" (over_cycles (fun c -> c.walls) cycles);
              m "completion_sim_s" "s" (over_cycles (fun c -> c.sims) cycles);
              m "wire_mb" "MB" (over_cycles (fun c -> c.bytes) cycles /. 1e6);
              m "live_heap_mb" "MB" (Summary.mean (List.hd cycles).heaps) ];
          trace_json = None;
          layers_json = None }
      end
      else begin
        (* Untraced and traced cycles alternate, so host speed drift
           falls on both sides of the tracing overhead alike.  They
           cover half the topologies, so a traced run takes about as
           long as an untraced one. *)
        let topos = Array.sub topos 0 (max 1 (Array.length topos / 2)) in
        let p =
          { tracer = Obs.Trace.create ();
            acc = Layers.create_acc ();
            mu = Mutex.create ();
            in_op = false;
            captured = [];
            n_captured = 0;
            runtime_spans = 0;
            runtime_dropped = 0 }
        in
        let traced_env = { env with probe = Some p } in
        let cycles =
          repeat ~seconds ~min_cycles:2 (fun i ->
              if i mod 2 = 0 then (`Untraced, cycle env ~first:(i = 0) topos)
              else
                ( `Traced,
                  Obs.Trace.with_span p.tracer "workload" (fun () ->
                      cycle traced_env ~first:false topos) ))
        in
        let pick tag = List.filter_map (fun (t, c) -> if t = tag then Some c else None) cycles in
        let traced = pick `Traced and untraced = pick `Untraced in
        let replay =
          let r, scale =
            Calib.scaled (fun () ->
                Obs.Trace.with_span p.tracer "replay" (fun () ->
                    Layers.replay ~directory (Layers.sample ~limit:replay_limit p.captured)))
          in
          Layers.scale_replay scale r
        in
        let attempted, failed, failure = tally_sum (List.map snd cycles) in
        let metrics =
          layer_metrics s p replay ~traced ~untraced
            ~keygen:(Summary.median (List.map fst setups))
            ~create:(Summary.median (List.map snd setups))
        in
        let layers_json =
          Obs.Json.Obj
            [ ("workload", Obs.Json.Str s.name);
              ("seed", Obs.Json.Int seed);
              ( "metrics",
                Obs.Json.Obj
                  (List.map
                     (fun x ->
                       ( x.m_name,
                         Obs.Json.Obj
                           [ ("value", Obs.Json.Float x.m_value); ("unit", Obs.Json.Str x.m_unit) ]
                       ))
                     metrics) );
              ("traced_operations", Obs.Json.Int (int_of_float (Layers.get p.acc "ops")));
              ("replayed_messages", Obs.Json.Int replay.Layers.messages);
              ("replayed_blocks", Obs.Json.Int replay.Layers.blocks);
              ("runtime_spans", Obs.Json.Int p.runtime_spans);
              ("runtime_dropped_spans", Obs.Json.Int p.runtime_dropped);
              ("bench_dropped_spans", Obs.Json.Int (Obs.Trace.dropped p.tracer)) ]
        in
        { attempted = attempted + replay.Layers.messages + replay.Layers.signatures;
          failed = failed + replay.Layers.mismatches;
          failure =
            (match failure with
            | Some _ -> failure
            | None when replay.Layers.mismatches > 0 -> Some "a replayed message did not round-trip"
            | None -> None);
          cycles = List.length cycles;
          topologies_per_cycle = Array.length topos;
          metrics;
          trace_json = Some (Obs.Export.chrome_trace p.tracer);
          layers_json = Some layers_json }
      end)
