(* The Section 6 workload: Best-Path over random topologies.

   "As input, we insert link tables for N nodes with average outdegree
   of three, and vary the size of N from 10 to 100.  To isolate the
   individual overhead of authenticated communication and provenance,
   we execute three versions of the Best-Path query: NDlog ...,
   SeNDlog ..., and SeNDlogProv ...  [metrics:] query completion time
   and bandwidth usage, averaged over 10 experimental runs." *)

type point = {
  p_config : string;
  p_n : int;
  p_wall_seconds : float; (* mean over runs *)
  p_wall_stddev : float; (* sample stddev over runs; 0 for a single run *)
  p_sim_seconds : float;
  p_sim_stddev : float;
  p_megabytes : float;
  p_mb_stddev : float;
  p_messages : int;
  p_signatures : int;
  p_verif_failures : int;
  p_dropped_forged : int;
  p_best_paths : int;
}

type run_opts = {
  ro_seed : int;
  ro_runs : int; (* experimental runs to average (paper: 10) *)
  ro_rsa_bits : int;
  ro_outdegree : int;
}

let default_opts = { ro_seed = 2008; ro_runs = 3; ro_rsa_bits = 512; ro_outdegree = 3 }

(* Shared principal pool.  RSA key generation is provisioning, not
   query execution, so one directory per key size is grown lazily and
   reused across runs, network sizes and configurations instead of
   regenerating ~N keypairs for every (run, size) pair.  Reuse shares
   *keys* only: [Runtime.create] clears the per-principal signature
   caches, so each run still pays its own signing cost. *)
let shared_pool : (int, Sendlog.Principal.directory * Crypto.Rng.t) Hashtbl.t =
  Hashtbl.create 4

let shared_directory ~(rsa_bits : int) (node_names : string list) :
    Sendlog.Principal.directory =
  let dir, rng =
    match Hashtbl.find_opt shared_pool rsa_bits with
    | Some entry -> entry
    | None ->
      let entry =
        ( Sendlog.Principal.empty_directory (),
          Crypto.Rng.create ~seed:(0x5e7d109 + rsa_bits) )
      in
      Hashtbl.add shared_pool rsa_bits entry;
      entry
  in
  Sendlog.Principal.ensure_registered dir rng ~rsa_bits node_names;
  dir

(* One run of one configuration over one topology; the directory is
   shared so RSA key generation (provisioning, not query execution)
   stays out of the measured time. *)
let run_once ~(cfg : Config.t) ~(topo : Net.Topology.t)
    ~(directory : Sendlog.Principal.directory) ~(seed : int) :
    float * float * Net.Stats.t * int =
  let program = Ndlog.Programs.best_path () in
  let t =
    Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed) ~cfg ~topo ~program ()
  in
  Runtime.install_links t;
  let r = Runtime.run t in
  let best = List.length (Runtime.query_all t "bestPath") in
  (r.wall_seconds, r.sim_seconds, Runtime.stats t, best)

let configs ~(rsa_bits : int) : Config.t list =
  [ { Config.ndlog with rsa_bits };
    { Config.sendlog with rsa_bits };
    { Config.sendlog_prov with rsa_bits } ]

(* One run's raw measurements, kept per run (not folded into running
   sums) so the aggregation can report dispersion alongside the mean. *)
type sample = {
  sm_wall : float;
  sm_sim : float;
  sm_mb : float;
  sm_msgs : int;
  sm_sigs : int;
  sm_vf : int;
  sm_df : int;
  sm_best : int;
}

let mean (xs : float list) : float =
  List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Sample standard deviation (Bessel-corrected); 0 for fewer than two
   runs, so single-run smoke output stays exact. *)
let stddev (xs : float list) : float =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

(* Measure the three configurations at one network size over
   [opts.ro_runs] topologies, reporting mean and sample stddev. *)
let measure_n ?(opts = default_opts) (n : int) : point list =
  let cfgs = configs ~rsa_bits:opts.ro_rsa_bits in
  let acc : (string, sample list ref) Hashtbl.t = Hashtbl.create 4 in
  for run = 0 to opts.ro_runs - 1 do
    let topo_rng = Crypto.Rng.create ~seed:(opts.ro_seed + (1000 * run) + n) in
    let topo = Net.Topology.random topo_rng ~n ~outdegree:opts.ro_outdegree () in
    let directory =
      shared_directory ~rsa_bits:opts.ro_rsa_bits topo.Net.Topology.nodes
    in
    List.iter
      (fun cfg ->
        let wall, sim, stats, best =
          run_once ~cfg ~topo ~directory ~seed:(opts.ro_seed + run)
        in
        let sample =
          { sm_wall = wall;
            sm_sim = sim;
            sm_mb = Net.Stats.megabytes stats;
            sm_msgs = stats.Net.Stats.messages;
            sm_sigs = stats.Net.Stats.signatures_generated;
            sm_vf = stats.Net.Stats.verification_failures;
            sm_df = stats.Net.Stats.dropped_forged;
            sm_best = best }
        in
        let name = Config.name cfg in
        match Hashtbl.find_opt acc name with
        | Some r -> r := sample :: !r
        | None -> Hashtbl.add acc name (ref [ sample ]))
      cfgs
  done;
  List.map
    (fun cfg ->
      let name = Config.name cfg in
      let samples = !(Hashtbl.find acc name) in
      let runs = List.length samples in
      let walls = List.map (fun s -> s.sm_wall) samples in
      let sims = List.map (fun s -> s.sm_sim) samples in
      let mbs = List.map (fun s -> s.sm_mb) samples in
      let isum f = List.fold_left (fun a s -> a + f s) 0 samples in
      { p_config = name;
        p_n = n;
        p_wall_seconds = mean walls;
        p_wall_stddev = stddev walls;
        p_sim_seconds = mean sims;
        p_sim_stddev = stddev sims;
        p_megabytes = mean mbs;
        p_mb_stddev = stddev mbs;
        p_messages = isum (fun s -> s.sm_msgs) / runs;
        p_signatures = isum (fun s -> s.sm_sigs) / runs;
        p_verif_failures = isum (fun s -> s.sm_vf);
        p_dropped_forged = isum (fun s -> s.sm_df);
        p_best_paths = isum (fun s -> s.sm_best) / runs })
    cfgs

(* The full Figure 3 / Figure 4 sweep. *)
let sweep ?(opts = default_opts) ?(ns = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]) () :
    point list =
  List.concat_map (fun n -> measure_n ~opts n) ns

(* --- churn: long-running Best-Path under link flaps ------------------- *)

(* The churn ablation the incremental-maintenance work is gated on:
   converge Best-Path, subject the network to a Poisson link-flap
   process (every flap retracts or reinstalls a link fact, driving the
   DRed-style deletion pass), let it re-converge, and compare both the
   cost and the result against full recomputation — a from-scratch run
   over the same (post-churn, i.e. static) topology. *)

type churn_point = {
  c_config : string;
  c_n : int;
  c_flap_rate : float;
  c_horizon : float; (* churn window, virtual seconds *)
  c_flaps : int; (* link transitions played *)
  c_incremental_wall : float; (* churn + re-convergence, wall seconds *)
  c_scratch_wall : float; (* full recomputation, wall seconds *)
  c_reconverge_sim : float; (* virtual seconds from last flap to quiescence *)
  c_updates : int; (* tuples retracted + re-derived during churn *)
  c_updates_per_sec : float; (* updates / incremental wall *)
  c_fixpoint_match : bool; (* post-churn Best-Path relations = from-scratch *)
  c_prov_match : bool; (* ... and so is every tuple's provenance *)
}

(* The queried fixpoint, normalized for comparison: sorted
   (node, tuple identity) pairs. *)
let fixpoint_snapshot (t : Runtime.t) (rel : string) : (string * string) list =
  List.sort compare
    (List.map
       (fun (addr, tu) -> (addr, Engine.Tuple.interned_identity tu))
       (Runtime.query_all t rel))

(* Per-tuple provenance, keyed like the fixpoint snapshot.  The
   AC-canonical rendering is the byte-identity the acceptance
   criterion asks for: + and * are commutative (free commutative
   semiring), and evaluation order — which differs between an
   incremental run and a from-scratch run, e.g. in the first-seen
   variable order of the condensed wire codec — leaks into the raw
   tree shape without changing the annotation's meaning. *)
let prov_snapshot (t : Runtime.t) (rel : string) : ((string * string) * string) list
    =
  List.sort compare
    (List.map
       (fun (addr, tu) ->
         ( (addr, Engine.Tuple.interned_identity tu),
           Provenance.Prov_expr.canonical_string (Runtime.provenance_of t ~at:addr tu)
         ))
       (Runtime.query_all t rel))

let run_churn ?(cfg = Config.sendlog_prov) ?(seed = 2008) ?(n = 10)
    ?(outdegree = 3) ?(rate = 0.4) ?(horizon = 5.0) () : churn_point =
  let program = Ndlog.Programs.best_path () in
  let topo_rng = Crypto.Rng.create ~seed:(seed + n) in
  let topo = Net.Topology.random topo_rng ~n ~outdegree () in
  let directory = shared_directory ~rsa_bits:cfg.Config.rsa_bits topo.Net.Topology.nodes in
  (* Incremental run: converge, flap, re-converge in place. *)
  let t =
    Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed) ~cfg ~topo ~program ()
  in
  Runtime.install_links t;
  ignore (Runtime.run t);
  Runtime.enable_derivation_log t;
  let derivs_before = List.length (Runtime.derivation_log t) in
  let retracted_before = Runtime.tuples_retracted t in
  let churn_start = Runtime.now t in
  let flaps = Runtime.schedule_flaps t ~rate ~horizon () in
  let r1 = Runtime.run t in
  let last_flap =
    List.fold_left (fun acc (f : Net.Fault.flap) -> max acc f.Net.Fault.fl_at) 0.0 flaps
  in
  let reconverge_sim = r1.Runtime.sim_seconds -. (churn_start +. last_flap) in
  let updates =
    List.length (Runtime.derivation_log t) - derivs_before
    + (Runtime.tuples_retracted t - retracted_before)
  in
  (* Full recomputation on the post-churn (= static) topology. *)
  let t2 =
    Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed) ~cfg ~topo ~program ()
  in
  Runtime.install_links t2;
  let r2 = Runtime.run t2 in
  let rels = [ "link"; "path"; "bestPathCost"; "bestPath" ] in
  let same snapshot = List.for_all (fun rel -> snapshot t rel = snapshot t2 rel) rels in
  let fixpoint_match = same fixpoint_snapshot in
  let prov_match =
    match cfg.Config.prov with
    | Config.Prov_off -> fixpoint_match
    | _ -> same prov_snapshot
  in
  let point =
    { c_config = Config.name cfg;
      c_n = n;
      c_flap_rate = rate;
      c_horizon = horizon;
      c_flaps = List.length flaps;
      c_incremental_wall = r1.Runtime.wall_seconds;
      c_scratch_wall = r2.Runtime.wall_seconds;
      c_reconverge_sim = reconverge_sim;
      c_updates = updates;
      c_updates_per_sec =
        (if r1.Runtime.wall_seconds > 0.0 then
           float_of_int updates /. r1.Runtime.wall_seconds
         else 0.0);
      c_fixpoint_match = fixpoint_match;
      c_prov_match = prov_match }
  in
  Runtime.shutdown t;
  Runtime.shutdown t2;
  point

let churn_point_to_json (p : churn_point) : Obs.Json.t =
  Obs.Json.Obj
    [ ("config", Obs.Json.Str p.c_config);
      ("n", Obs.Json.Int p.c_n);
      ("flap_rate", Obs.Json.Float p.c_flap_rate);
      ("horizon", Obs.Json.Float p.c_horizon);
      ("flaps", Obs.Json.Int p.c_flaps);
      ("incremental_wall_seconds", Obs.Json.Float p.c_incremental_wall);
      ("scratch_wall_seconds", Obs.Json.Float p.c_scratch_wall);
      ("reconverge_sim_seconds", Obs.Json.Float p.c_reconverge_sim);
      ("updates", Obs.Json.Int p.c_updates);
      ("updates_per_sec", Obs.Json.Float p.c_updates_per_sec);
      ("fixpoint_match", Obs.Json.Bool p.c_fixpoint_match);
      ("prov_match", Obs.Json.Bool p.c_prov_match) ]

let point_to_json (p : point) : Obs.Json.t =
  Obs.Json.Obj
    [ ("config", Obs.Json.Str p.p_config);
      ("n", Obs.Json.Int p.p_n);
      ("wall_seconds", Obs.Json.Float p.p_wall_seconds);
      ("wall_stddev", Obs.Json.Float p.p_wall_stddev);
      ("sim_seconds", Obs.Json.Float p.p_sim_seconds);
      ("sim_stddev", Obs.Json.Float p.p_sim_stddev);
      ("megabytes", Obs.Json.Float p.p_megabytes);
      ("megabytes_stddev", Obs.Json.Float p.p_mb_stddev);
      ("messages", Obs.Json.Int p.p_messages);
      ("signatures", Obs.Json.Int p.p_signatures);
      ("verification_failures", Obs.Json.Int p.p_verif_failures);
      ("dropped_forged", Obs.Json.Int p.p_dropped_forged);
      ("best_paths", Obs.Json.Int p.p_best_paths) ]
