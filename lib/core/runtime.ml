(* The provenance-aware secure networking runtime: the paper's
   modified P2 system.

   Every simulated node runs the same compiled SeNDlog/NDlog program
   over its own database.  Locally derived tuples addressed at another
   node become wire messages: encoded, authenticated according to the
   configuration (Section 2.2's [says] implementations), and - in the
   provenance-shipping configurations - annotated with the tuple's
   (condensed) provenance (Sections 4.1/4.4).  Receivers verify
   authentication, fold the shipped provenance into their stores, and
   continue the distributed fixpoint.  The discrete-event simulator
   delivers messages; quiescence of its queue is the distributed
   fixpoint the paper's "query completion time" measures. *)

open Engine

type node = {
  n_addr : string;
  n_principal : Sendlog.Principal.t;
  n_db : Db.t;
  n_prov : Prov_store.t;
  n_support : Support.t;
      (* support graph for incremental deletion; maintained
         unconditionally (unlike the provenance store, whose capture is
         gated by the configuration) so retraction correctness never
         depends on provenance settings *)
  n_base : unit Tuple.Table.t;
      (* locally installed base facts: tuples with external support
         that survives the loss of every recorded derivation *)
  n_recv_from : string list ref Tuple.Table.t;
      (* senders currently standing behind each received tuple;
         trimmed by K_retract and by soft-state expiry *)
  n_sent_cache : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* dedup of identical sends, keyed dest+tuple identity with the
         provenance variant one level down, so a retraction notice can
         drop every variant of one (dest, tuple) in O(1) *)
  mutable n_msgs_received : int;
  mutable n_free_at : float; (* virtual time until which this node's CPU is busy *)
  n_parked : Net.Wire.message Queue.t;
      (* receive queue: messages that arrived while the CPU was busy,
         in arrival order.  Drained FIFO by a wake event at
         [n_free_at], so a message that waits through several busy
         periods can never be overtaken by a later arrival on the same
         channel (retract/assert wire order is load-bearing) *)
  mutable n_wake_at : float;
      (* time of the armed wake event, or -1.0 when none is pending *)
}

(* One unit of node-level work inside a timestamp batch: a delivered
   data or retract message accepted for processing, a base-fact
   installation, or a local base-fact retraction. *)
type work_item =
  | W_msg of Net.Wire.message
  | W_fact of Tuple.t
  | W_retract of Tuple.t

(* A fully prepared outgoing message, minus its channel sequence
   number.  Signing happens at preparation ([Wire.signed_bytes]
   excludes the seq), so worker domains can sign concurrently; the seq
   is assigned at commit, in canonical order, so per-channel numbering
   is identical to the sequential schedule. *)
type outgoing = {
  o_kind : Net.Wire.kind; (* K_data or K_retract *)
  o_dest : string;
  o_receiver : node option;
  o_latency : float;
  o_tuple : Tuple.t;
  o_auth : Net.Wire.auth;
  o_prov : string option;
}

(* Per-handler execution context: cost-model charges and prepared
   sends accumulated while a node's handler runs.  One per node group
   (and per soft-state eviction), so handlers on different domains
   never share it. *)
type exec_ctx = {
  mutable xc_charge : float;
  mutable xc_out : outgoing list; (* reversed *)
}

(* One committed signed message whose verification is scheduled ahead
   of delivery (pipelined batch verification, on whenever the runtime
   has worker domains and verifies RSA signatures): enough to
   re-encode the canonical signed bytes at flush time.  The receiver
   finds the precomputed verdict keyed by the message's channel
   identity. *)
type pending_verify = {
  pv_src : string;
  pv_dst : string;
  pv_seq : int;
  pv_retract : bool;
  pv_tuple : Tuple.t;
  pv_auth : Net.Wire.auth;
}

(* One cross-shard schedule buffered during a conservative window.
   Shards may not touch each other's queues mid-window, so a delivery
   addressed to another shard parks here and is flushed at the next
   barrier, sorted by (timestamp, source shard, per-shard order) — the
   deterministic tiebreak that makes the merged schedule independent
   of which worker domain ran which shard. *)
type outbox_entry = {
  ox_time : float; (* absolute virtual time of the buffered event *)
  ox_src : int; (* producing shard *)
  ox_order : int; (* per-shard production order, for the tiebreak *)
  ox_target : int; (* shard whose queue receives the event *)
  ox_action : unit -> unit;
}

(* One shard of the event engine: its own priority queue and clock,
   plus the state its window drain uses — the inbox that coalesces a
   timestamp's deliveries per node, and the cross-shard outbox.  With
   [Config.shards = 1] there is exactly one shard, drained as a single
   window. *)
type shard = {
  sh_id : int;
  sh_sim : Net.Event_sim.t;
  mutable sh_inbox : (node * work_item) list;
      (* the current timestamp's accepted deliveries, fact installs and
         fact retractions, in reversed arrival order *)
  mutable sh_outbox : outbox_entry list; (* reversed production order *)
  mutable sh_order : int; (* monotone outbox tiebreak counter *)
  mutable sh_verify : pending_verify list;
      (* signed messages committed since the last verify flush
         (reversed); flushed into async pool slabs at batch/window
         boundaries so their crypto overlaps the next fixpoint *)
}

type t = {
  cfg : Config.t;
  shards : shard array; (* length >= 1; index 0 is the default shard *)
  shard_ids : (string, int) Hashtbl.t; (* node address -> owning shard *)
  lookahead : float;
      (* conservative safe-advance window: the minimum cross-shard
         delivery latency (including the overlay path), so an event
         executed inside a window can only schedule cross-shard work
         at or beyond the window's end *)
  net_mu : Mutex.t;
      (* guards the cross-shard network tables ([chan_seq], [pending],
         [seen]) and [tuples_retracted]: each key is written by a
         single shard, but the tables themselves resize under
         concurrent writers *)
  topo : Net.Topology.t;
  stats : Net.Stats.t;
  directory : Sendlog.Principal.directory;
  compiled : Sendlog.Compile.compiled;
  nodes : (string, node) Hashtbl.t;
  prov_ctx : Provenance.Condense.ctx;
  prov_mu : Mutex.t;
      (* guards the shared condense context (BDD manager + wire cache)
         against concurrent encode/decode from worker domains *)
  prov_log : Store.Prov_log.t option;
      (* persisted offline provenance log (write-through target of
         every node's retire path, plus 1/K-sampled flows and Bloom
         digests); internally mutex-guarded, so worker domains append
         directly *)
  pool : Par.Pool.t option;
      (* worker domains when [cfg.jobs > 1] or the engine is sharded *)
  verify_pipelined : bool;
      (* dispatch-time batch verification is on: pool present, RSA
         auth, and signatures verified *)
  vq_mu : Mutex.t; (* guards [vq_futures] *)
  vq_futures :
    ( string * string * int * bool,
      Sendlog.Auth.verdict array Par.Pool.future * int )
    Hashtbl.t;
      (* precomputed verdict per in-flight signed message, keyed
         (src, dst, seq, is_retract): the slab future and the
         message's slot within it *)
  obs_events : Obs.Events.log; (* bounded structured event log *)
  mutable tracer : Obs.Trace.t option; (* span tree, when tracing is on *)
  h_handler : Obs.Metrics.histogram; (* modeled per-handler duration *)
  h_compute : Obs.Metrics.histogram; (* measured CPU per handler *)
  c_flushes : Obs.Metrics.counter;
  c_buffered : Obs.Metrics.counter;
  c_batches : Obs.Metrics.counter; (* timestamp batches executed *)
  c_batch_items : Obs.Metrics.counter; (* work items across all batches *)
  c_flows : Obs.Metrics.counter; (* 1/K-sampled flows written to the log *)
  g_group_max : Obs.Metrics.gauge; (* largest per-node group coalesced *)
  g_crashed : Obs.Metrics.gauge; (* nodes currently failed-stop *)
  mutable crashed_now : int;
  chan_seq : (string * string, int) Hashtbl.t;
      (* next data sequence number per (src,dst) channel *)
  pending : (string * string * int, unit) Hashtbl.t;
      (* reliable layer: data sends awaiting an ACK, keyed (src,dst,seq) *)
  seen : (string * string * int, int) Hashtbl.t;
      (* receiver-side dedup: processed-delivery count per (src,dst,seq) *)
  mutable links_with_cost : bool;
      (* how [install_links] rendered link facts, so churn operations
         ([link_down]/[link_up]) can reconstruct the same tuples *)
  mutable tuples_retracted : int;
      (* monotone count of tuples deleted by retraction passes, across
         all nodes *)
  mutable on_message : (float -> Net.Wire.message -> unit) option;
      (* audit tap: sees every wire message (Accountability) *)
}

let node (t : t) (addr : string) : node =
  match Hashtbl.find_opt t.nodes addr with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Runtime.node: unknown node %s" addr)

let nodes (t : t) : node list =
  List.map (fun addr -> node t addr) t.topo.Net.Topology.nodes

(* --- shard context ---------------------------------------------------- *)

(* Which shard the calling domain is currently draining: set around
   each window drain, -1 elsewhere (the orchestrator between drains,
   and pool workers evaluating a single shard's node groups). *)
let cur_shard_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let shard_of (t : t) (addr : string) : int =
  Option.value (Hashtbl.find_opt t.shard_ids addr) ~default:0

(* The shard whose inbox applies to the calling context: the one being
   drained on this domain, or shard 0 outside any drain. *)
let shard_ctx (t : t) : shard =
  let i = Domain.DLS.get cur_shard_key in
  if i >= 0 && i < Array.length t.shards then t.shards.(i) else t.shards.(0)

(* Current virtual time as seen from the calling context: the draining
   shard's clock inside a window, the global maximum outside (the
   orchestrator's view — every shard has drained at least to the last
   barrier). *)
let now (t : t) : float =
  let i = Domain.DLS.get cur_shard_key in
  if i >= 0 && i < Array.length t.shards then Net.Event_sim.now t.shards.(i).sh_sim
  else
    Array.fold_left
      (fun acc sh -> Float.max acc (Net.Event_sim.now sh.sh_sim))
      0.0 t.shards

(* Schedule [action] on the shard owning [addr] at absolute virtual
   time [time].  Same-shard schedules go straight onto the queue;
   cross-shard schedules from inside a window buffer in the producing
   shard's outbox until the next barrier (conservative
   synchronization: the target shard may already have drained past
   the caller's clock, but never past [caller now + lookahead], and
   every cross-shard delay is at least the lookahead); schedules from
   the orchestrator (installs, evictions, flap schedules) go on the
   target queue directly, clamped forward to its clock. *)
let sched_at_to (t : t) (addr : string) ~(time : float) (action : unit -> unit) : unit
    =
  let target = shard_of t addr in
  let cur = Domain.DLS.get cur_shard_key in
  if cur = target then Net.Event_sim.schedule_at t.shards.(target).sh_sim ~time action
  else if cur < 0 then begin
    let tsim = t.shards.(target).sh_sim in
    Net.Event_sim.schedule_at tsim ~time:(Float.max (Net.Event_sim.now tsim) time) action
  end
  else begin
    let src = t.shards.(cur) in
    src.sh_order <- src.sh_order + 1;
    src.sh_outbox <-
      { ox_time = time;
        ox_src = cur;
        ox_order = src.sh_order;
        ox_target = target;
        ox_action = action }
      :: src.sh_outbox
  end

(* Relative variant: [delay] simulated seconds from the caller's
   current virtual time. *)
let sched_to (t : t) (addr : string) ~(delay : float) (action : unit -> unit) : unit =
  if delay < 0.0 then invalid_arg "Runtime.sched_to: negative delay";
  sched_at_to t addr ~time:(now t +. delay) action

(* --- creation -------------------------------------------------------- *)

(* AS-domain base key of a node, independent of the run's provenance
   granularity: the offline log's secondary index keys records by
   domain even for node-granularity runs. *)
let as_domain_of (topo : Net.Topology.t) (addr : string) : string =
  Printf.sprintf "as%d" (Net.Topology.as_of topo addr)

(* Shape a live store's offline record for the on-disk log: the
   store already holds the log's derivation records. *)
let log_record_of_offline ~(node : string) ~(domain : string) ~(live : bool)
    (r : Prov_store.offline_record) : Store.Prov_log.record =
  { Store.Prov_log.r_node = node;
    r_domain = domain;
    r_live = live;
    r_at = r.Prov_store.off_expired_at;
    r_tuple = r.Prov_store.off_tuple;
    r_expr = r.Prov_store.off_expr;
    r_received_from = r.Prov_store.off_received_from;
    r_derivs = r.Prov_store.off_derivs }

let create ?(directory : Sendlog.Principal.directory option) ~(rng : Crypto.Rng.t)
    ~(cfg : Config.t) ~(topo : Net.Topology.t) ~(program : Ndlog.Ast.program) () : t =
  let compiled = Sendlog.Compile.compile program in
  let directory =
    match directory with
    | Some d -> d
    | None ->
      Sendlog.Principal.directory_for rng ~rsa_bits:cfg.rsa_bits topo.Net.Topology.nodes
  in
  let nodes = Hashtbl.create (List.length topo.Net.Topology.nodes) in
  List.iter
    (fun addr ->
      let db = Db.create () in
      Db.configure_from_program db compiled.c_program;
      let principal =
        match Sendlog.Principal.find directory addr with
        | Some p -> p
        | None ->
          (* Nodes outside the directory get fresh keys. *)
          let p = Sendlog.Principal.create rng ~name:addr ~rsa_bits:cfg.rsa_bits () in
          Sendlog.Principal.register directory p;
          p
      in
      Hashtbl.replace nodes addr
        { n_addr = addr;
          n_principal = principal;
          n_db = db;
          n_prov = Prov_store.create ();
          n_support = Support.create ();
          n_base = Tuple.Table.create 64;
          n_recv_from = Tuple.Table.create 64;
          n_sent_cache = Hashtbl.create 256;
          n_msgs_received = 0;
          n_free_at = 0.0;
          n_parked = Queue.create ();
          n_wake_at = -1.0 })
    topo.Net.Topology.nodes;
  let reg = Obs.Metrics.default in
  (* Pre-register the run's standard series so a metrics snapshot
     always contains them, even for a run that derives nothing. *)
  ignore (Obs.Metrics.counter reg "eval.rounds");
  ignore (Obs.Metrics.counter reg "eval.derivations");
  ignore (Obs.Metrics.counter reg "eval.inserted");
  ignore (Obs.Metrics.counter reg "db.index_probes");
  ignore (Obs.Metrics.counter reg "db.index_hits");
  ignore (Obs.Metrics.counter reg "db.index_builds");
  ignore (Obs.Metrics.counter reg "db.full_scans");
  ignore (Obs.Metrics.histogram reg "crypto.sign_seconds");
  ignore (Obs.Metrics.histogram reg "crypto.verify_seconds");
  ignore (Obs.Metrics.counter reg "crypto.sign_cache_hits");
  ignore (Obs.Metrics.counter reg "crypto.sign_cache_misses");
  ignore (Obs.Metrics.counter reg "crypto.verify_batches");
  ignore (Obs.Metrics.counter reg "crypto.verify_batch_size");
  ignore (Obs.Metrics.counter reg "traceback.partial_results");
  ignore (Obs.Metrics.counter reg "forensics.records_written");
  ignore (Obs.Metrics.counter reg "forensics.segments_compacted");
  ignore (Obs.Metrics.counter reg "forensics.flows_recorded");
  ignore (Obs.Metrics.counter reg "forensics.bloom_prefilter_hits");
  ignore (Obs.Metrics.counter reg "forensics.bloom_prefilter_misses");
  ignore (Obs.Metrics.counter reg "forensics.sampled_query_walks");
  (* Fresh run: reused principals must not carry signatures (or their
     cost savings) over from a previous runtime. *)
  Sendlog.Principal.clear_sign_caches directory;
  (* Persisted offline provenance log: every node's retire path writes
     through to it, so expired tuples remain traceable after the
     process exits (Section 4.2). *)
  let prov_log =
    Option.map (fun dir -> Store.Prov_log.open_log ~dir ()) cfg.Config.prov_log
  in
  (match prov_log with
  | Some log ->
    Hashtbl.iter
      (fun _ n ->
        let domain = as_domain_of topo n.n_addr in
        Prov_store.set_retire_sink n.n_prov
          (Some
             (fun r ->
               Store.Prov_log.append log
                 (log_record_of_offline ~node:n.n_addr ~domain ~live:false r))))
      nodes
  | None -> ());
  (* Shard layout: partition nodes by AS.  [shards = 0] means one
     shard per distinct AS; [shards = K] folds ASes onto K shards by
     [as mod K]; [shards = 1] is a single queue. *)
  let distinct_as =
    let seen_as = Hashtbl.create 16 in
    List.iter
      (fun addr -> Hashtbl.replace seen_as (Net.Topology.as_of topo addr) ())
      topo.Net.Topology.nodes;
    max 1 (Hashtbl.length seen_as)
  in
  let shard_count =
    match cfg.Config.shards with
    | 0 -> distinct_as
    | 1 -> 1
    | k -> min k (max 1 (List.length topo.Net.Topology.nodes))
  in
  let shard_ids = Hashtbl.create (List.length topo.Net.Topology.nodes) in
  List.iter
    (fun addr ->
      Hashtbl.replace shard_ids addr (Net.Topology.as_of topo addr mod shard_count))
    topo.Net.Topology.nodes;
  (* Conservative lookahead: no cross-shard interaction can take
     effect sooner than the cheapest cross-shard delivery.  The
     overlay path (used when no physical link exists) bounds it from
     above; any faster physical link that crosses a shard boundary
     lowers it.  A zero-latency cross-shard link degrades the window
     to one timestamp per barrier — still correct, just slower. *)
  let lookahead =
    if shard_count = 1 then infinity
    else
      List.fold_left
        (fun acc (l : Net.Topology.link) ->
          let s = Hashtbl.find_opt shard_ids l.Net.Topology.l_src in
          let d = Hashtbl.find_opt shard_ids l.Net.Topology.l_dst in
          if s <> d then Float.min acc l.Net.Topology.l_latency else acc)
        Net.Topology.overlay_latency topo.Net.Topology.links
  in
  let shards =
    Array.init shard_count (fun i ->
        { sh_id = i;
          sh_sim = Net.Event_sim.create ();
          sh_inbox = [];
          sh_outbox = [];
          sh_order = 0;
          sh_verify = [] })
  in
  (* The sharded engine needs worker domains even when [jobs = 1];
     shards beyond the hardware parallelism just queue. *)
  let pool_jobs =
    if shard_count > 1 then
      max cfg.Config.jobs
        (min shard_count (max 2 (Domain.recommended_domain_count ())))
    else cfg.Config.jobs
  in
  let pool =
    if pool_jobs > 1 then Some (Par.Pool.create ~jobs:pool_jobs) else None
  in
  let t =
    { cfg;
      shards;
      shard_ids;
      lookahead;
      net_mu = Mutex.create ();
      topo;
      stats = Net.Stats.create ();
      directory;
      compiled;
      nodes;
      prov_ctx = Provenance.Condense.create_ctx ();
      prov_mu = Mutex.create ();
      prov_log;
      pool;
      verify_pipelined = Option.is_some pool && cfg.Config.auth = Sendlog.Auth.Auth_rsa;
      vq_mu = Mutex.create ();
      vq_futures = Hashtbl.create 256;
      obs_events = Obs.Events.create ~capacity:8192 ();
      tracer = None;
      h_handler = Obs.Metrics.histogram reg "runtime.handler_seconds";
      h_compute = Obs.Metrics.histogram reg "runtime.handler_compute_seconds";
      c_flushes = Obs.Metrics.counter reg "runtime.out_buffer_flushes";
      c_buffered = Obs.Metrics.counter reg "runtime.messages_buffered";
      c_batches = Obs.Metrics.counter reg "par.batches";
      c_batch_items = Obs.Metrics.counter reg "par.batch_items";
      c_flows = Obs.Metrics.counter reg "forensics.flows_recorded";
      g_group_max = Obs.Metrics.gauge reg "par.group_items_max";
      g_crashed = Obs.Metrics.gauge reg "sim.crashed_nodes";
      crashed_now = 0;
      chan_seq = Hashtbl.create 64;
      pending = Hashtbl.create 256;
      seen = Hashtbl.create 256;
      links_with_cost = true;
      tuples_retracted = 0;
      on_message = None }
  in
  Obs.Metrics.set t.g_crashed 0.0;
  Obs.Metrics.set (Obs.Metrics.gauge reg "par.jobs") (float_of_int cfg.jobs);
  Obs.Metrics.set (Obs.Metrics.gauge reg "sim.shards") (float_of_int shard_count);
  (* Marker events keep the sim.crashed_nodes gauge current as the
     fault model's fail-stop schedule plays out.  They are telemetry
     only (crash semantics come from the pure [Fault.is_down]), so
     shard 0 hosts them all regardless of the crashed node's shard. *)
  List.iter
    (fun (c : Net.Fault.crash) ->
      Net.Event_sim.schedule_at t.shards.(0).sh_sim ~time:c.Net.Fault.cr_at
        (fun () ->
          t.crashed_now <- t.crashed_now + 1;
          Obs.Metrics.set t.g_crashed (float_of_int t.crashed_now));
      match c.Net.Fault.cr_restart with
      | Some r ->
        Net.Event_sim.schedule_at t.shards.(0).sh_sim ~time:r (fun () ->
            t.crashed_now <- t.crashed_now - 1;
            Obs.Metrics.set t.g_crashed (float_of_int t.crashed_now))
      | None -> ())
    cfg.Config.fault.Net.Fault.crashes;
  t

(* --- provenance capture ---------------------------------------------- *)

(* Is this tuple's provenance recorded at all?  The log's 1-in-K
   hash on the tuple identity implements Section 5's sampling
   optimisation without extra RNG state; the same knob thins the
   log's flow records.  [K <= 1] is tested first so unsampled runs
   never take the interning mutex. *)
let sampled (t : t) (tuple : Tuple.t) : bool =
  t.cfg.prov_sample_k <= 1
  || Store.Prov_log.sampled ~k:t.cfg.prov_sample_k (Tuple.interned_identity tuple)

let prov_enabled (t : t) =
  match t.cfg.prov with
  | Config.Prov_off -> false
  | Config.Prov_local | Config.Prov_distributed -> true

(* Provenance key for a base tuple at [node]: the asserting principal
   at node granularity, or the node's AS (Section 5). *)
let base_key (t : t) (n : node) : string =
  match t.cfg.granularity with
  | Config.Node_level -> n.n_addr
  | Config.As_level -> Printf.sprintf "as%d" (Net.Topology.as_of t.topo n.n_addr)

(* Expression of a body tuple as seen at [n]; base tuples (no entry
   yet) are registered on first use. *)
let body_expr (t : t) (n : node) (tuple : Tuple.t) : Provenance.Prov_expr.t =
  let e = Prov_store.expr_of n.n_prov tuple in
  if not (Provenance.Prov_expr.equal e Provenance.Prov_expr.zero) then e
  else begin
    Prov_store.record_base n.n_prov tuple ~key:(base_key t n);
    Prov_store.expr_of n.n_prov tuple
  end

let origin_of (n : node) (tuple : Tuple.t) : Store.Prov_log.origin =
  match Prov_store.received_from n.n_prov tuple with
  | sender :: _ -> Store.Prov_log.Remote sender
  | [] -> Store.Prov_log.Local

(* The one provenance refresh.  A derivation alternative freezes its
   bodies' expressions, so when [seeds] change (gained an alternative,
   lost one, or died) heads in their support cone may hold stale
   copies.  Walk the cone depth-first from the seeds' heads, shipped
   heads included (the sender keeps their entries), then refresh each
   head once in reverse post-order if one of its bodies changed.  On a
   DAG that order is topological, so one pass reaches the fixpoint
   whatever order alternatives arrived in; on a cycle the back edge is
   not followed, so each tuple is refreshed once per lap. *)
let refresh_dependents (n : node) (seeds : Tuple.t list) : unit =
  let heads_of tup =
    List.map (fun (e : Support.entry) -> e.Support.sp_head)
      (Support.dependents_of n.n_support tup)
  in
  (* reached head -> whether one of its bodies changed *)
  let stale : bool Tuple.Table.t = Tuple.Table.create 16 in
  let order = ref [] in
  let rec visit tup =
    if not (Tuple.Table.mem stale tup) then begin
      Tuple.Table.replace stale tup false;
      let heads = heads_of tup in
      List.iter visit heads;
      order := (tup, heads) :: !order
    end
  in
  let mark = List.iter (fun h -> Tuple.Table.replace stale h true) in
  List.iter (fun s -> List.iter visit (heads_of s)) seeds;
  (* marked only now: [visit] reads any entry as visited *)
  List.iter (fun s -> mark (heads_of s)) seeds;
  let expr_of b = Prov_store.expr_of n.n_prov b in
  List.iter
    (fun (tup, heads) ->
      if Tuple.Table.find stale tup && Prov_store.refresh_tuple n.n_prov tup ~expr_of then
        mark heads)
    !order

(* Record one derivation in [n]'s provenance store and return the
   expression shipped alongside the head tuple (local mode). *)
let capture_derivation (t : t) (n : node) (deriv : Eval.derivation) :
    Provenance.Prov_expr.t =
  if (not (prov_enabled t)) || not (sampled t deriv.d_head) then
    Provenance.Prov_expr.zero
  else begin
    let combined =
      match t.cfg.maintenance with
      | Config.Reactive -> Provenance.Prov_expr.zero (* pointers only *)
      | Config.Proactive ->
        Provenance.Prov_expr.times_list
          (List.map (fun (b, _) -> body_expr t n b) deriv.d_body)
    in
    let node_repr =
      Printf.sprintf "%s<-%s[%s]" (Tuple.interned_identity deriv.d_head) deriv.d_rule
        (String.concat ";"
           (List.map (fun (b, _) -> Tuple.interned_identity b) deriv.d_body))
    in
    let signature, signer =
      if t.cfg.sign_provenance then begin
        Net.Stats.record_signature t.stats;
        ( Sendlog.Auth.sign_provenance_node t.cfg.auth n.n_principal ~node_repr,
          Some n.n_addr )
      end
      else (None, None)
    in
    let record =
      { Store.Prov_log.d_rule = deriv.d_rule;
        d_body =
          List.map
            (fun (b, asserter) ->
              { Store.Prov_log.b_tuple = b;
                b_origin = origin_of n b;
                b_says = Option.map Value.to_addr asserter })
            deriv.d_body;
        d_at = now t;
        d_signature = signature;
        d_signer = signer }
    in
    if
      Prov_store.record_derivation n.n_prov deriv.d_head ~record ~combined
      && t.cfg.maintenance = Config.Proactive
    then refresh_dependents n [ deriv.d_head ];
    combined
  end

(* Run [f] with [mu] held; used for the few pieces of genuinely shared
   mutable state the worker domains touch. *)
let locked (mu : Mutex.t) (f : unit -> 'a) : 'a =
  Mutex.lock mu;
  match f () with
  | r ->
    Mutex.unlock mu;
    r
  | exception e ->
    Mutex.unlock mu;
    raise e

(* Wire block for a shipped provenance expression: the serialized BDD
   itself, as the paper's modified P2 ships it (Section 4.4).  The
   condense context (BDD manager, memoized wire cache) is shared
   across nodes, so access is serialized under [prov_mu]. *)
let encode_prov (t : t) (e : Provenance.Prov_expr.t) : string =
  locked t.prov_mu (fun () -> Provenance.Condense.to_wire t.prov_ctx e)

let decode_prov (t : t) (block : string) : Provenance.Prov_expr.t =
  try locked t.prov_mu (fun () -> Provenance.Condense.of_wire t.prov_ctx block)
  with Bdd.Deserialize_error _ | Provenance.Condense.Wire_error _ ->
    Provenance.Prov_expr.zero

(* --- message plumbing ------------------------------------------------ *)

let deliver : (t -> node -> Net.Wire.message -> unit) ref =
  ref (fun _ _ _ -> assert false)

(* Per-(src,dst) channel sequence numbers: the reliable layer keys its
   pending table and the receiver's dedup table by (src, dst, seq), so
   sequence numbers must be unique per channel, not globally.  Each
   channel is driven from the sender's shard, but the table itself
   resizes under concurrent writers, hence [net_mu]. *)
let next_seq (t : t) ~(src : string) ~(dst : string) : int =
  locked t.net_mu (fun () ->
      let key = (src, dst) in
      let s = Option.value (Hashtbl.find_opt t.chan_seq key) ~default:0 in
      Hashtbl.replace t.chan_seq key (s + 1);
      s)

(* --- faulty transport ------------------------------------------------ *)

(* One transmission attempt over the (possibly faulty) network: asks
   the fault model how many copies arrive and with what extra delay.
   Verdicts are keyed by [ident] — the message's content identity
   (kind-prefixed tuple identity), supplied by the caller — so a
   [--fault-seed] run's fate per message is independent of the
   enqueue-order-dependent channel sequence numbers and reproduces
   across [--shards] values. *)
let transmit (t : t) ~(delay : float) (receiver : node) (msg : Net.Wire.message)
    ~(attempt : int) ~(ident : string) : unit =
  let deliveries =
    Net.Fault.decide t.cfg.Config.fault ~src:msg.Net.Wire.msg_src
      ~dst:msg.Net.Wire.msg_dst ~ident ~attempt
  in
  (match deliveries with
  | [] -> Net.Stats.record_drop t.stats
  | _ :: extras -> List.iter (fun _ -> Net.Stats.record_dup t.stats) extras);
  List.iter
    (fun extra ->
      sched_to t receiver.n_addr ~delay:(delay +. extra) (fun () ->
          !deliver t receiver msg))
    deliveries

(* Reliable delivery: transmit, then arm a retransmission timer with
   exponential backoff.  The timer is a no-op once the ACK has cleared
   the pending entry; a timer that fires while its sender is
   fail-stopped parks itself until the sender restarts (the pending
   table is the sender's stable storage). *)
let rec reliable_send (t : t) (receiver : node) (msg : Net.Wire.message)
    ~(delay : float) ~(latency : float) ~(attempt : int) ~(ident : string) : unit =
  transmit t ~delay receiver msg ~attempt ~ident;
  let key = (msg.Net.Wire.msg_src, msg.Net.Wire.msg_dst, msg.Net.Wire.msg_seq) in
  (* Exponential backoff, capped: without the cap a run at 20% loss
     spends most of its simulated time inside minute-long retransmit
     gaps (the core test "backoff cap bounds completion under faults"
     measures the difference). *)
  let timeout =
    Float.min t.cfg.Config.max_backoff
      (t.cfg.Config.ack_timeout *. (2.0 ** float_of_int attempt))
  in
  (* Audit-stream counterpart of [Net.Stats.record_retry_exhausted]:
     a delivery giving up is a security-relevant outcome (a partition
     or a suppression attack looks exactly like this), so it must
     appear in the event log, not only in a counter. *)
  let emit_retry_exhausted ~at ~reason =
    Obs.Events.emit t.obs_events ~at
      (Obs.Events.E_custom
         { kind = "retry_exhausted";
           attrs =
             [ ("src", msg.Net.Wire.msg_src);
               ("dst", msg.Net.Wire.msg_dst);
               ("seq", string_of_int msg.Net.Wire.msg_seq);
               ("reason", reason) ] })
  in
  let rec on_timer () =
    if locked t.net_mu (fun () -> Hashtbl.mem t.pending key) then begin
      let now = now t in
      let fault = t.cfg.Config.fault in
      if Net.Fault.is_down fault ~now msg.Net.Wire.msg_src then
        match Net.Fault.restart_after fault ~now msg.Net.Wire.msg_src with
        | Some at -> sched_at_to t msg.Net.Wire.msg_src ~time:at on_timer
        | None ->
          (* The sender never comes back; nobody will retransmit. *)
          locked t.net_mu (fun () -> Hashtbl.remove t.pending key);
          Net.Stats.record_retry_exhausted t.stats;
          emit_retry_exhausted ~at:now ~reason:"sender_failed"
      else if attempt >= t.cfg.Config.retry_limit then begin
        locked t.net_mu (fun () -> Hashtbl.remove t.pending key);
        Net.Stats.record_retry_exhausted t.stats;
        emit_retry_exhausted ~at:now ~reason:"retry_limit"
      end
      else begin
        Net.Stats.record_retransmit t.stats;
        (* The retransmitted copy costs real bandwidth. *)
        Net.Stats.record_message t.stats msg;
        reliable_send t receiver msg ~delay:latency ~latency ~attempt:(attempt + 1)
          ~ident
      end
    end
  in
  (* The timer lives on the sender's shard: retransmission is the
     sender's CPU re-offering the message, and [latency >= lookahead]
     keeps the resulting cross-shard delivery safe. *)
  sched_to t msg.Net.Wire.msg_src ~delay:(delay +. timeout) on_timer

(* Entry point for a freshly produced data message leaving its node.
   The fault-verdict identity is the message's content, prefixed per
   kind so a retraction of a tuple never shares its assertion's
   verdicts. *)
let dispatch (t : t) (receiver : node) (msg : Net.Wire.message) ~(delay : float)
    ~(latency : float) : unit =
  let ident =
    (match msg.Net.Wire.msg_kind with
    | Net.Wire.K_retract -> "r|"
    | Net.Wire.K_data | Net.Wire.K_ack -> "")
    ^ Tuple.interned_identity msg.Net.Wire.msg_tuple
  in
  if t.cfg.Config.reliable then begin
    locked t.net_mu (fun () ->
        Hashtbl.replace t.pending
          (msg.Net.Wire.msg_src, msg.Net.Wire.msg_dst, msg.Net.Wire.msg_seq)
          ());
    reliable_send t receiver msg ~delay ~latency ~attempt:0 ~ident
  end
  else transmit t ~delay receiver msg ~attempt:0 ~ident

(* Prepare an emitted tuple for the wire: capture provenance, dedup
   against the sender's sent cache, and sign.  Everything here is
   either per-node state or mutex-guarded, so worker domains prepare
   (and in particular sign) concurrently.  The message is *not*
   released: it joins [xc.xc_out] and is committed in canonical order
   once the handler's duration is known. *)
let send (t : t) (xc : exec_ctx) (sender : node) (emit : Eval.emit) : unit =
  let tuple = emit.e_tuple in
  (* Record the derivation at the sender (distributed traceback walks
     these pointers back through the node that derived the tuple) and
     obtain the combined expression of this derivation. *)
  let combined = capture_derivation t sender emit.e_deriv in
  (* AS-level granularity (Section 5.3): a tuple crossing a domain
     boundary ships its provenance summarized to the origin domain's
     single base key; intra-domain sends keep node-level detail. *)
  let shipped =
    match t.cfg.granularity with
    | Config.Node_level -> combined
    | Config.As_level ->
      let src_as = Net.Topology.as_of t.topo sender.n_addr in
      if Net.Topology.as_of t.topo emit.e_dest = src_as then combined
      else
        Provenance.Condense.domain_summary combined
          ~domain:(Printf.sprintf "as%d" src_as)
  in
  (* Provenance shipped with the tuple: only in local proactive mode
     (receiver Plus-combines alternatives). *)
  let prov_block =
    match (t.cfg.prov, t.cfg.maintenance) with
    | Config.Prov_local, Config.Proactive when sampled t tuple ->
      if Provenance.Prov_expr.equal shipped Provenance.Prov_expr.zero then None
      else begin
        xc.xc_charge <- xc.xc_charge +. t.cfg.cost_model.per_provenance_seconds;
        Some (encode_prov t shipped)
      end
    | _ -> None
  in
  let cache_group = emit.e_dest ^ "|" ^ Tuple.interned_identity tuple in
  let cache_variant = Option.value prov_block ~default:"" in
  let variants =
    match Hashtbl.find_opt sender.n_sent_cache cache_group with
    | Some v -> v
    | None ->
      let v = Hashtbl.create 4 in
      Hashtbl.add sender.n_sent_cache cache_group v;
      v
  in
  let fresh = not (Hashtbl.mem variants cache_variant) in
  (* Under RSA, signing runs *before* the sent-cache verdict:
     [Wire.signed_bytes] excludes the seq and the provenance block, so
     a re-derivation re-shipping the same (dest, tuple) — whatever its
     provenance variant — recurs byte-identically and resolves as a
     digest-cache hit rather than never reaching the cache at all. *)
  if fresh || t.cfg.auth = Sendlog.Auth.Auth_rsa then begin
    (* The signed bytes live in the domain's scratch arena only long
       enough to be digested (or MACed) by [make_auth_slice]; no
       string is ever materialized on this path. *)
    let bytes =
      Net.Wire.signed_slice (Net.Arena.scratch ()) ~src:sender.n_addr
        ~dst:emit.e_dest tuple
    in
    let auth = Sendlog.Auth.make_auth_slice t.cfg.auth sender.n_principal bytes in
    if fresh then begin
      Hashtbl.add variants cache_variant ();
      (match t.cfg.auth with
      | Sendlog.Auth.Auth_rsa | Sendlog.Auth.Auth_hmac -> Net.Stats.record_signature t.stats
      | Sendlog.Auth.Auth_none | Sendlog.Auth.Auth_cleartext -> ());
      let latency = Net.Topology.delivery_latency t.topo ~src:sender.n_addr ~dst:emit.e_dest in
      let receiver = Hashtbl.find_opt t.nodes emit.e_dest in
      xc.xc_out <-
        { o_kind = Net.Wire.K_data;
          o_dest = emit.e_dest;
          o_receiver = receiver;
          o_latency = latency;
          o_tuple = tuple;
          o_auth = auth;
          o_prov = prov_block }
        :: xc.xc_out
    end
  end

let self_principal_of (t : t) (n : node) : Value.t option =
  match t.cfg.auth with
  | Sendlog.Auth.Auth_none -> None
  | _ -> Some (Value.V_str n.n_addr)

(* Derivation callback shared by the forward fixpoint and the
   retraction pass's re-derivations, so a replayed derivation leaves
   the same events and provenance as the original. *)
let on_derive_for (t : t) (n : node) : Eval.derivation -> unit =
 fun deriv ->
  let at = now t in
  Obs.Events.emit t.obs_events ~at
    (Obs.Events.E_rule_fired
       { node = n.n_addr; rule = deriv.Eval.d_rule; derivations = 1 });
  Obs.Events.emit t.obs_events ~at
    (Obs.Events.E_tuple_derived
       { node = n.n_addr; rel = deriv.Eval.d_head.Tuple.rel; rule = deriv.Eval.d_rule });
  ignore (capture_derivation t n deriv)

(* A replace policy displaced [old]: its provenance is historical state
   now, so it retires to the offline log (when one is configured)
   rather than lingering online as if [old] were still live. *)
let on_replace_for (t : t) (n : node) : Tuple.t -> unit =
 fun old -> Prov_store.retire n.n_prov old ~now:(now t)

(* --- incremental deletion (DRed) -------------------------------------- *)

(* External (non-derived) support for a tuple at [n], as asserter
   options for re-insertion: a locally installed base fact supports
   itself with no asserter; every sender still standing behind a
   received copy supports it under that sender's principal (or no
   asserter when the run does not authenticate, matching what
   [accept_message] would have recorded). *)
let external_support (t : t) (n : node) (tuple : Tuple.t) : Value.t option list =
  let base = if Tuple.Table.mem n.n_base tuple then [ None ] else [] in
  let senders =
    match Tuple.Table.find_opt n.n_recv_from tuple with
    | None -> []
    | Some srcs ->
      let sorted = List.sort String.compare !srcs in
      if t.cfg.auth = Sendlog.Auth.Auth_none then
        if sorted = [] then [] else [ None ]
      else List.map (fun src -> Some (Value.V_str src)) sorted
  in
  base @ senders

(* Forget every cached send of [tuple] to [dest]; true when at least
   one variant had actually been sent.  A retraction notice is only
   worth a message when the peer got the assertion in the first place
   (a support record whose emit was deduped, or a head retracted twice
   with no re-send in between, has nothing to withdraw). *)
let clear_sent (n : node) (dest : string) (tuple : Tuple.t) : bool =
  let group = dest ^ "|" ^ Tuple.interned_identity tuple in
  let was = Hashtbl.mem n.n_sent_cache group in
  Hashtbl.remove n.n_sent_cache group;
  was

(* Prepare a retraction notice for a previously emitted tuple.  The
   signature covers [Wire.retract_signed_bytes] — a distinct domain
   from assertions, so a captured assertion signature cannot be
   replayed as a retraction (or vice versa). *)
let send_retract (t : t) (xc : exec_ctx) (sender : node) ~(dest : string)
    (tuple : Tuple.t) : unit =
  let bytes =
    Net.Wire.retract_signed_slice (Net.Arena.scratch ()) ~src:sender.n_addr
      ~dst:dest tuple
  in
  let auth = Sendlog.Auth.make_auth_slice t.cfg.auth sender.n_principal bytes in
  (match t.cfg.auth with
  | Sendlog.Auth.Auth_rsa | Sendlog.Auth.Auth_hmac -> Net.Stats.record_signature t.stats
  | Sendlog.Auth.Auth_none | Sendlog.Auth.Auth_cleartext -> ());
  let latency = Net.Topology.delivery_latency t.topo ~src:sender.n_addr ~dst:dest in
  xc.xc_out <-
    { o_kind = Net.Wire.K_retract;
      o_dest = dest;
      o_receiver = Hashtbl.find_opt t.nodes dest;
      o_latency = latency;
      o_tuple = tuple;
      o_auth = auth;
      o_prov = None }
    :: xc.xc_out

(* Incrementally delete [lost] (and everything whose support dies with
   it) from [n]'s database: the runtime face of [Eval.retract].  After
   the pass, dead tuples' provenance is retired to the offline log,
   invalidated alternatives are pruned from surviving entries, peers
   that received now-dead tuples get retraction notices (prepared
   before any re-assertions, so the wire order is retract-then-assert),
   and fresh emissions from re-derivation are sent as usual.
   Incumbents displaced by a replace policy during the pass's
   re-derivations accumulate in [displaced] for a follow-up pass. *)

(* Only incumbents of strictly-ordered replace policies (P_min/P_max)
   are drained through retraction passes: re-deriving a displaced worse
   value is Rejected by the policy, so the displacement chain
   terminates.  P_last is arrival-order tie-breaking — a re-derived
   displaced tuple would displace the incumbent right back, forever —
   and its dependents are not stale in any order-independent sense, so
   those relations rely on ordinary support-graph retraction alone. *)
let displacement_may_drain (n : node) (old : Tuple.t) : bool =
  match Db.policy n.n_db old.Tuple.rel with
  | Db.Replace { prefer = Db.P_last; _ } | Db.Set -> false
  | Db.Replace { prefer = Db.P_min _ | Db.P_max _; _ } -> true

(* Forward convergence displaces aggregate winners constantly (every
   better bestPathCost beats the last), and in the common case the
   displaced value's dependent cone is already dead by the time the
   fixpoint settles — its p4-style head was itself displaced moments
   later by the rule re-firing with the better value — so a full
   retraction pass would only shuffle hashtables.  Walk the cone at
   drain time (never at displacement time, when the stale dependents
   haven't been overwritten yet): a pass is needed only if some
   dependent head is still live locally or was shipped to another
   node. *)
let displacement_drains (n : node) (old : Tuple.t) : bool =
  let visited : unit Tuple.Table.t = Tuple.Table.create 8 in
  let rec live_dependent (tup : Tuple.t) : bool =
    (not (Tuple.Table.mem visited tup))
    && begin
      Tuple.Table.replace visited tup ();
      List.exists
        (fun (e : Engine.Support.entry) ->
          e.Engine.Support.sp_dest <> None
          || Db.mem n.n_db e.Engine.Support.sp_head
          || live_dependent e.Engine.Support.sp_head)
        (Engine.Support.dependents_of n.n_support tup)
    end
  in
  live_dependent old

let rec retract_pass (t : t) (xc : exec_ctx) (n : node) ~(lost : Tuple.t list)
    ~(displaced : Tuple.t list ref) : unit =
  let now = now t in
  let self_principal = self_principal_of t n in
  let on_replace old =
    on_replace_for t n old;
    if displacement_may_drain n old then displaced := old :: !displaced
  in
  let res =
    Eval.retract n.n_db ~support:n.n_support ~now ~rules:t.compiled.c_rules
      ~local:(Some n.n_addr) ?self_principal ~on_replace
      ~lost ~external_support:(external_support t n)
      ~on_derive:(on_derive_for t n) ()
  in
  (* Retire dead tuples first: pruning an alternative from an entry
     that is about to be retired whole would lose offline records. *)
  List.iter
    (fun tuple ->
      Tuple.Table.remove n.n_recv_from tuple;
      Prov_store.retire n.n_prov tuple ~now)
    res.Eval.rr_deleted;
  List.iter
    (fun (d : Eval.derivation) ->
      Prov_store.remove_derivation n.n_prov d.Eval.d_head ~rule:d.Eval.d_rule
        ~body:
          (List.map
             (fun (b, asserter) -> (b, Option.map Value.to_addr asserter))
             d.Eval.d_body))
    res.Eval.rr_invalidated;
  (* Dead tuples and pruned alternatives leave stale copies of their
     old expressions in their dependents' derivations (proactive
     capture only: reactive maintenance stores pointers). *)
  if prov_enabled t && t.cfg.maintenance = Config.Proactive then
    refresh_dependents n
      (res.Eval.rr_deleted
      @ List.map (fun (d : Eval.derivation) -> d.Eval.d_head) res.Eval.rr_invalidated);
  locked t.net_mu (fun () ->
      t.tuples_retracted <- t.tuples_retracted + List.length res.Eval.rr_deleted);
  if res.Eval.rr_deleted <> [] then
    Obs.Events.emit t.obs_events ~at:now
      (Obs.Events.E_custom
         { kind = "retracted";
           attrs =
             [ ("node", n.n_addr);
               ("count", string_of_int (List.length res.Eval.rr_deleted)) ] });
  List.iter
    (fun (dest, tuple) ->
      if clear_sent n dest tuple then send_retract t xc n ~dest tuple)
    res.Eval.rr_remote_dead;
  List.iter (send t xc n) res.Eval.rr_emits

(* A replace policy displacing an incumbent is a deletion in disguise:
   tuples derived from the displaced value (a MIN/MAX winner that just
   changed) are stale the moment the better value wins, and must be
   over-deleted and re-derived exactly like dependents of an explicit
   retraction — otherwise e.g. a lookup forwarded along the old best
   finger survives churn alongside the re-routed one.  Passes run until
   none displaces anything further; the P_min/P_max orders are strict,
   so the chain of displacements terminates (see
   [displacement_drains]). *)
and drain_displaced (t : t) (xc : exec_ctx) (n : node)
    (displaced : Tuple.t list ref) : unit =
  match !displaced with
  | [] -> ()
  | rev ->
    displaced := [];
    let seen : unit Tuple.Table.t = Tuple.Table.create 8 in
    let lost =
      List.filter
        (fun old ->
          (not (Tuple.Table.mem seen old))
          && begin
            Tuple.Table.replace seen old ();
            displacement_drains n old
          end)
        (List.rev rev)
    in
    if lost <> [] then retract_pass t xc n ~lost ~displaced;
    drain_displaced t xc n displaced

let retract_local (t : t) (xc : exec_ctx) (n : node) ~(lost : Tuple.t list) : unit =
  let displaced = ref [] in
  retract_pass t xc n ~lost ~displaced;
  drain_displaced t xc n displaced

(* Run the local fixpoint at [n] with [pending] insertions and prepare
   whatever is derived for other nodes.  Displaced incumbents then get
   their retraction passes, so no dependent of a replaced aggregate
   winner outlives the replacement. *)
let process (t : t) (xc : exec_ctx) (n : node) (pending : Eval.frontier_item list) :
    unit =
  let displaced = ref [] in
  let on_replace old =
    on_replace_for t n old;
    if displacement_may_drain n old then displaced := old :: !displaced
  in
  let self_principal = self_principal_of t n in
  let emits, _stats =
    Eval.run_fixpoint n.n_db ~now:(now t)
      ~rules:t.compiled.c_rules ~local:(Some n.n_addr) ?self_principal
      ~support:n.n_support ~on_replace ~pending
      ~on_derive:(on_derive_for t n) ()
  in
  List.iter (send t xc n) emits;
  drain_displaced t xc n displaced

(* Verdict for an incoming authenticated message: consume the
   pipelined verdict if one was precomputed at dispatch (awaiting a
   slab that no worker has started yet *steals* it and runs it inline,
   so the fallback degenerates to exactly the scalar kernel), else
   verify inline straight out of the scratch-encoded signed bytes.
   Either way the per-message accounting stays with the caller. *)
let verdict_for (t : t) (msg : Net.Wire.message) ~(retract : bool)
    (bytes : Net.Arena.slice Lazy.t) : Sendlog.Auth.verdict =
  let precomputed =
    if not t.verify_pipelined then None
    else
      locked t.vq_mu (fun () ->
          let key =
            (msg.Net.Wire.msg_src, msg.Net.Wire.msg_dst, msg.Net.Wire.msg_seq,
             retract)
          in
          match Hashtbl.find_opt t.vq_futures key with
          | Some entry ->
            Hashtbl.remove t.vq_futures key;
            Some entry
          | None -> None)
  in
  match precomputed with
  | Some (fut, slot) -> (Par.Pool.await fut).(slot)
  | None ->
    Sendlog.Auth.verify_slice t.cfg.auth t.directory msg.Net.Wire.msg_auth
      (Lazy.force bytes)

(* Receiver side of a retraction notice: verify it (same outcomes as a
   data message), withdraw the sender from the tuple's external
   support and provenance, and — if the tuple is live — run the
   incremental deletion pass, which re-derives or reinstates anything
   that survives on other support. *)
let handle_retract (t : t) (xc : exec_ctx) (receiver : node)
    (msg : Net.Wire.message) : unit =
  let tuple = msg.Net.Wire.msg_tuple in
  let src = msg.Net.Wire.msg_src in
  let bytes =
    lazy
      (Net.Wire.retract_signed_slice (Net.Arena.scratch ()) ~src
         ~dst:msg.Net.Wire.msg_dst tuple)
  in
  let ok =
    match verdict_for t msg ~retract:true bytes with
    | Sendlog.Auth.Verified _ ->
      (match t.cfg.auth with
      | Sendlog.Auth.Auth_rsa | Sendlog.Auth.Auth_hmac ->
        Net.Stats.record_verification t.stats ~ok:true;
        Obs.Events.emit t.obs_events ~at:(now t)
          (Obs.Events.E_sig_verified { node = receiver.n_addr; ok = true })
      | _ -> ());
      true
    | Sendlog.Auth.Unsigned -> true
    | Sendlog.Auth.Forged _ ->
      Net.Stats.record_verification t.stats ~ok:false;
      Net.Stats.record_forged t.stats;
      let at = now t in
      Obs.Events.emit t.obs_events ~at
        (Obs.Events.E_sig_verified { node = receiver.n_addr; ok = false });
      Obs.Events.emit t.obs_events ~at
        (Obs.Events.E_forged_dropped
           { node = receiver.n_addr; src });
      false
  in
  if ok then begin
    (match Tuple.Table.find_opt receiver.n_recv_from tuple with
    | Some srcs ->
      srcs := List.filter (fun s -> not (String.equal s src)) !srcs;
      if !srcs = [] then Tuple.Table.remove receiver.n_recv_from tuple
    | None -> ());
    if prov_enabled t then
      Prov_store.remove_received receiver.n_prov tuple ~from:src;
    if Db.mem receiver.n_db tuple then retract_local t xc receiver ~lost:[ tuple ]
  end

(* Commit a finished handler: from its measured compute time and
   accumulated charges derive the modeled duration, advance the node's
   busy horizon, and release the prepared messages in order — each is
   assigned its channel seq here, so numbering matches the sequential
   schedule regardless of which domain prepared it. *)
let commit_handler (t : t) (n : node) ~(incoming_msgs : int) ~(incoming_bytes : int)
    ~(compute : float) ?(trace_parent : (int * int) option) (xc : exec_ctx) : unit =
  let cm = t.cfg.cost_model in
  let duration =
    compute +. xc.xc_charge
    +. (float_of_int incoming_msgs *. cm.per_message_seconds)
    +. (float_of_int incoming_bytes /. cm.throughput_bytes_per_sec)
  in
  let now = now t in
  n.n_free_at <- max n.n_free_at now +. duration;
  let depart = n.n_free_at -. now in
  let outgoing = List.rev xc.xc_out in
  xc.xc_out <- [];
  Obs.Metrics.observe t.h_handler duration;
  Obs.Metrics.observe t.h_compute compute;
  if outgoing <> [] then begin
    Obs.Metrics.inc t.c_flushes;
    Obs.Metrics.inc ~by:(List.length outgoing) t.c_buffered
  end;
  let trace_ctx =
    match t.tracer with
    | Some tr ->
      (* The span's primary duration is the *modeled* handler time (CPU
         + cost-model charges), which is what advances the virtual clock
         and hence the paper's completion time.  The parent is the
         *sending* node's handle span when the triggering message
         carried a trace context from this trace (cross-node causal
         link); otherwise the domain's enclosing span (the "run" root). *)
      let parent =
        match trace_parent with
        | Some (tid, sp) when tid = Obs.Trace.id tr -> Some sp
        | _ -> None
      in
      let attrs = [ ("node", n.n_addr) ] in
      let sid =
        match parent with
        | Some p ->
          Obs.Trace.record tr ~attrs ~parent:p "handle" ~start:now ~dur:duration
            ~wall_dur:compute
        | None ->
          Obs.Trace.record tr ~attrs "handle" ~start:now ~dur:duration
            ~wall_dur:compute
      in
      Some (Obs.Trace.id tr, sid)
    | None -> None
  in
  List.iter
    (fun o ->
      let msg =
        { Net.Wire.msg_kind = o.o_kind;
          msg_src = n.n_addr;
          msg_dst = o.o_dest;
          msg_seq = next_seq t ~src:n.n_addr ~dst:o.o_dest;
          msg_tuple = o.o_tuple;
          msg_auth = o.o_auth;
          msg_provenance = o.o_prov;
          msg_trace = trace_ctx }
      in
      Net.Stats.record_message t.stats msg;
      Obs.Events.emit t.obs_events ~at:now
        (Obs.Events.E_msg_sent
           { src = n.n_addr; dst = o.o_dest; bytes = Net.Wire.size msg });
      (* Offline-log capture during ordinary runs (Section 5.2): every
         released data shipment is a flow edge; a deterministic 1-in-K
         hash of the flow key decides whether to record it, and the
         sender's per-epoch Bloom digest remembers the tuple for
         membership pre-filtering during sampled traceback. *)
      (match t.prov_log with
      | Some log when o.o_kind = Net.Wire.K_data ->
        let ident = Tuple.interned_identity o.o_tuple in
        let key = n.n_addr ^ ">" ^ o.o_dest ^ "|" ^ ident in
        if Store.Prov_log.sampled ~k:t.cfg.Config.prov_sample_k key then begin
          Store.Prov_log.append_flow log ~src:n.n_addr ~dst:o.o_dest ~time:now ~ident;
          Store.Prov_log.record_digest log ~node:n.n_addr ~time:now ident;
          Obs.Metrics.inc t.c_flows
        end
      | _ -> ());
      (match o.o_prov with
      | Some block ->
        Obs.Events.emit t.obs_events ~at:now
          (Obs.Events.E_prov_condensed
             { node = n.n_addr; bytes = String.length block })
      | None -> ());
      (match t.on_message with
      | Some tap -> tap now msg
      | None -> ());
      match o.o_receiver with
      | None -> () (* destination outside the simulation: counted, dropped *)
      | Some r ->
        (* Pipelined verification: park the signed message for the next
           verify flush, so a pool slab computes its verdict while this
           shard is still busy with the following fixpoints.  The
           verdict is deterministic in the message, so precomputing it
           commutes with everything between here and acceptance. *)
        (match o.o_auth with
        | Net.Wire.A_signature _ when t.verify_pipelined ->
          let sh = shard_ctx t in
          sh.sh_verify <-
            { pv_src = n.n_addr;
              pv_dst = o.o_dest;
              pv_seq = msg.Net.Wire.msg_seq;
              pv_retract = (o.o_kind = Net.Wire.K_retract);
              pv_tuple = o.o_tuple;
              pv_auth = o.o_auth }
            :: sh.sh_verify
        | _ -> ());
        dispatch t r msg ~delay:(depart +. o.o_latency) ~latency:o.o_latency)
    outgoing

(* Execute [work] as node [n]'s CPU outside any drain (soft-state
   eviction in [advance]): measure its real duration, then commit (the
   messages the work produced depart only when the node finishes
   processing, as they would on a real host). *)
let with_processing (t : t) (n : node) (work : exec_ctx -> unit) : unit =
  let xc = { xc_charge = 0.0; xc_out = [] } in
  let t0 = Unix.gettimeofday () in
  work xc;
  let compute = Unix.gettimeofday () -. t0 in
  commit_handler t n ~incoming_msgs:0 ~incoming_bytes:0 ~compute xc

(* Authenticate an incoming data message and record its shipped
   provenance, returning the frontier item for the receiver's local
   fixpoint.  Raises [Exit] on a forged message (the verification work
   is still charged to the node).  Touches only per-node or
   mutex-guarded state, so pool workers call it while evaluating node
   groups. *)
let accept_message (t : t) (receiver : node) (msg : Net.Wire.message) :
    Eval.frontier_item =
  let tuple = msg.Net.Wire.msg_tuple in
  let bytes =
    lazy
      (Net.Wire.signed_slice (Net.Arena.scratch ()) ~src:msg.Net.Wire.msg_src
         ~dst:msg.Net.Wire.msg_dst tuple)
  in
  let asserter =
    match verdict_for t msg ~retract:false bytes with
    | Sendlog.Auth.Verified p ->
      (match t.cfg.auth with
      | Sendlog.Auth.Auth_rsa | Sendlog.Auth.Auth_hmac ->
        Net.Stats.record_verification t.stats ~ok:true;
        Obs.Events.emit t.obs_events ~at:(now t)
          (Obs.Events.E_sig_verified { node = receiver.n_addr; ok = true })
      | _ -> ());
      Some (Value.V_str p)
    | Sendlog.Auth.Unsigned -> None
    | Sendlog.Auth.Forged _ ->
      Net.Stats.record_verification t.stats ~ok:false;
      Net.Stats.record_forged t.stats;
      let at = now t in
      Obs.Events.emit t.obs_events ~at
        (Obs.Events.E_sig_verified { node = receiver.n_addr; ok = false });
      Obs.Events.emit t.obs_events ~at
        (Obs.Events.E_forged_dropped
           { node = receiver.n_addr; src = msg.Net.Wire.msg_src });
      raise Exit
  in
  (* The sender now stands behind this tuple: external support that
     keeps it alive through retraction passes until the sender
     retracts it (or soft-state expiry withdraws it). *)
  (match Tuple.Table.find_opt receiver.n_recv_from tuple with
  | Some srcs ->
    if not (List.mem msg.Net.Wire.msg_src !srcs) then
      srcs := msg.Net.Wire.msg_src :: !srcs
  | None ->
    Tuple.Table.replace receiver.n_recv_from tuple (ref [ msg.Net.Wire.msg_src ]));
  (* Record shipped provenance (and the sender pointer for distributed
     traceback) before evaluation so downstream derivations can fold
     it in. *)
  if prov_enabled t then begin
    let expr =
      match msg.Net.Wire.msg_provenance with
      | Some block -> decode_prov t block
      | None -> Provenance.Prov_expr.zero
    in
    Prov_store.record_received receiver.n_prov tuple ~from:msg.Net.Wire.msg_src ~expr
  end;
  { Eval.f_tuple = tuple; f_asserter = asserter }

(* Hand one unit of node work to the draining shard's inbox; the
   drain evaluates each node's share of the timestamp as one group. *)
let join_inbox (t : t) (n : node) (item : work_item) : unit =
  let sh = shard_ctx t in
  sh.sh_inbox <- (n, item) :: sh.sh_inbox

let rec handle_message (t : t) (receiver : node) (msg : Net.Wire.message) : unit =
  let now = now t in
  (* Fail-stop: a crashed node neither consumes ACKs nor processes
     data; the copy is simply lost (the reliable layer's retransmits
     outlive the outage). *)
  if Net.Fault.is_down t.cfg.Config.fault ~now receiver.n_addr then
    Net.Stats.record_drop t.stats
  else
    match msg.Net.Wire.msg_kind with
    | Net.Wire.K_ack ->
      (* Consumed by the sender-side reliable layer: clears the pending
         entry so the retransmission timer stands down.  No dataflow
         work, so no CPU charge or busy-queue wait. *)
      locked t.net_mu (fun () ->
          Hashtbl.remove t.pending
            (msg.Net.Wire.msg_dst, msg.Net.Wire.msg_src, msg.Net.Wire.msg_seq))
    | Net.Wire.K_data | Net.Wire.K_retract ->
      (* If the receiver's CPU is still busy with earlier work — or
         earlier arrivals are still waiting — the message joins the
         node's receive queue.  A single wake event drains the queue in
         arrival order; re-parking each message at its own [n_free_at]
         would let a later arrival overtake one that waited through
         several busy periods, inverting retract/assert wire order. *)
      if
        receiver.n_free_at > now +. 1e-9
        || not (Queue.is_empty receiver.n_parked)
      then begin
        Queue.add msg receiver.n_parked;
        arm_wake t receiver
      end
      else deliver_now t receiver msg

(* Arm the node's wake event at the end of its busy period (or now, if
   it is idle but the queue is nonempty).  At most one wake is pending
   per node: the wake re-arms itself while work remains. *)
and arm_wake (t : t) (receiver : node) : unit =
  if receiver.n_wake_at < 0.0 then begin
    let at = Float.max receiver.n_free_at (now t) in
    receiver.n_wake_at <- at;
    sched_at_to t receiver.n_addr ~time:at (fun () -> wake t receiver)
  end

(* The wake event: if the node is busy again, re-arm; otherwise the
   whole receive queue, in arrival order, joins the current
   timestamp's combined computation for the node. *)
and wake (t : t) (receiver : node) : unit =
  receiver.n_wake_at <- -1.0;
  if receiver.n_free_at > now t +. 1e-9 then arm_wake t receiver
  else
    while not (Queue.is_empty receiver.n_parked) do
      deliver_now t receiver (Queue.pop receiver.n_parked)
    done

(* Accept a data or retract message on an idle CPU: acknowledge and
   dedup (reliable mode), then hand it to the shard inbox.  [now] is
   re-read here — a parked message is charged the wake time, not its
   arrival time. *)
and deliver_now (t : t) (receiver : node) (msg : Net.Wire.message) : unit =
  let now = now t in
  if Net.Fault.is_down t.cfg.Config.fault ~now receiver.n_addr then
    (* Crashed while the message waited: the copy is lost (the reliable
       layer's retransmits outlive the outage). *)
    Net.Stats.record_drop t.stats
  else begin
    (* Reliable delivery: every copy is acknowledged (the first ACK
       may have been lost), but only the first is processed.
       Retractions share the channel's sequence space, so the same
       dedup covers them. *)
    let fresh =
      (not t.cfg.Config.reliable)
      || begin
           let key =
             (msg.Net.Wire.msg_src, msg.Net.Wire.msg_dst, msg.Net.Wire.msg_seq)
           in
           let count =
             locked t.net_mu (fun () ->
                 let c = Option.value (Hashtbl.find_opt t.seen key) ~default:0 in
                 Hashtbl.replace t.seen key (c + 1);
                 c)
           in
           send_ack t receiver msg ~attempt:count;
           count = 0
         end
    in
    if fresh then begin
      receiver.n_msgs_received <- receiver.n_msgs_received + 1;
      Net.Stats.record_received t.stats msg;
      Obs.Events.emit t.obs_events ~at:now
        (Obs.Events.E_msg_received
           { node = receiver.n_addr; src = msg.Net.Wire.msg_src; bytes = Net.Wire.size msg });
      join_inbox t receiver (W_msg msg)
    end
  end

(* Acknowledge a data message back to its sender.  ACKs ride the same
   faulty network but are never themselves retransmitted: a lost ACK
   surfaces as a data retransmission, which is re-acknowledged with a
   fresh fault verdict ([attempt] counts the deliveries seen). *)
and send_ack (t : t) (receiver : node) (data : Net.Wire.message) ~(attempt : int) :
    unit =
  match Hashtbl.find_opt t.nodes data.Net.Wire.msg_src with
  | None -> ()
  | Some orig ->
    let ack =
      Net.Wire.ack ~src:receiver.n_addr ~dst:data.Net.Wire.msg_src
        ~seq:data.Net.Wire.msg_seq
    in
    Net.Stats.record_ack t.stats;
    Net.Stats.record_message t.stats ack;
    let latency =
      Net.Topology.delivery_latency t.topo ~src:receiver.n_addr
        ~dst:data.Net.Wire.msg_src
    in
    (* The ACK's fault identity derives from the *data* message it
       acknowledges (the wire ACK carries only a placeholder tuple), so
       an ACK's fate never aliases a data verdict on the reverse
       channel and stays enqueue-order-independent. *)
    transmit t ~delay:latency orig ack ~attempt
      ~ident:("ack|" ^ Tuple.interned_identity data.Net.Wire.msg_tuple)

let () = deliver := handle_message

(* --- public operations ----------------------------------------------- *)

(* Install a base fact at a node (scheduled immediately). *)
let install_fact (t : t) ~(at : string) (tuple : Tuple.t) : unit =
  let n = node t at in
  sched_to t at ~delay:0.0 (fun () -> join_inbox t n (W_fact tuple))

(* Install program facts at the location given by their location
   specifier (or first address argument). *)
let install_program_facts (t : t) : unit =
  List.iter
    (fun (f : Ndlog.Ast.fact) ->
      let args = List.map Value.of_const f.fact_args in
      let tuple = Tuple.make f.fact_pred args in
      let at =
        let idx = Option.value f.fact_loc ~default:0 in
        Value.to_addr (List.nth args idx)
      in
      install_fact t ~at tuple)
    (Ndlog.Ast.facts t.compiled.c_program)

(* Install the topology's link facts at their source nodes. *)
let install_links ?(with_cost = true) (t : t) : unit =
  t.links_with_cost <- with_cost;
  List.iter
    (fun tuple -> install_fact t ~at:(Value.to_addr (Tuple.arg tuple 0)) tuple)
    (Net.Topology.link_facts ~with_cost t.topo)

(* Retract a base fact previously installed at a node (scheduled
   immediately): withdraw its external support and run the incremental
   deletion pass over everything derived from it. *)
let retract_fact (t : t) ~(at : string) (tuple : Tuple.t) : unit =
  let n = node t at in
  sched_to t at ~delay:0.0 (fun () -> join_inbox t n (W_retract tuple))

(* --- link churn -------------------------------------------------------- *)

(* The physical topology [t.topo] stays fixed (delivery latencies, the
   flap process's link population); churn retracts and reinstalls the
   *link facts* the program routes over, which is what the fixpoint
   depends on.  The equivalent from-scratch run is a fresh runtime on
   [Net.Topology.remove_link]-mutated topology. *)

let link_tuple (t : t) (l : Net.Topology.link) : Tuple.t =
  let args =
    if t.links_with_cost then
      [ Value.V_str l.Net.Topology.l_src;
        Value.V_str l.Net.Topology.l_dst;
        Value.V_int l.Net.Topology.l_cost ]
    else [ Value.V_str l.Net.Topology.l_src; Value.V_str l.Net.Topology.l_dst ]
  in
  Tuple.make "link" args

let find_physical_link (t : t) ~(src : string) ~(dst : string) ~(op : string) :
    Net.Topology.link =
  match Net.Topology.find_link t.topo ~src ~dst with
  | Some l -> l
  | None ->
    invalid_arg (Printf.sprintf "Runtime.%s: no link %s -> %s" op src dst)

let link_down (t : t) ~(src : string) ~(dst : string) : unit =
  let l = find_physical_link t ~src ~dst ~op:"link_down" in
  retract_fact t ~at:src (link_tuple t l)

let link_up (t : t) ~(src : string) ~(dst : string) : unit =
  let l = find_physical_link t ~src ~dst ~op:"link_up" in
  install_fact t ~at:src (link_tuple t l)

(* Schedule a seed-reproducible Poisson flap process over every
   physical link (see [Net.Fault.flap_schedule]).  Flap times are
   relative to the current virtual time, so a caller can first run to
   the static fixpoint and then start the churn phase.  Returns the
   schedule so callers can report or assert on it. *)
let schedule_flaps (t : t) ~(rate : float) ?(mean_downtime = 0.5)
    ~(horizon : float) () : Net.Fault.flap list =
  let links =
    List.map
      (fun (l : Net.Topology.link) -> (l.Net.Topology.l_src, l.Net.Topology.l_dst))
      t.topo.Net.Topology.links
  in
  let flaps =
    Net.Fault.flap_schedule t.cfg.Config.fault ~links ~rate ~mean_downtime
      ~horizon ()
  in
  let start = now t in
  List.iter
    (fun (f : Net.Fault.flap) ->
      let time = start +. f.Net.Fault.fl_at in
      (* A flap's effects are the source node's link facts, so the
         transition event lives on the source node's shard. *)
      sched_at_to t f.Net.Fault.fl_src ~time (fun () ->
          Obs.Events.emit t.obs_events ~at:time
            (Obs.Events.E_custom
               { kind = (if f.Net.Fault.fl_down then "link_down" else "link_up");
                 attrs = [ ("src", f.Net.Fault.fl_src); ("dst", f.Net.Fault.fl_dst) ] });
          if f.Net.Fault.fl_down then
            link_down t ~src:f.Net.Fault.fl_src ~dst:f.Net.Fault.fl_dst
          else link_up t ~src:f.Net.Fault.fl_src ~dst:f.Net.Fault.fl_dst))
    flaps;
  flaps

(* --- the event loop ---------------------------------------------------- *)

(* Drain a shard's deferred inbox into per-node work lists, in
   first-arrival order both across nodes and within each node's list.
   That order is the canonical commit order: it makes seq assignment
   (and hence the whole schedule) independent of which domain computed
   what. *)
let group_inbox (sh : shard) : (node * work_item list) list =
  let items = List.rev sh.sh_inbox in
  sh.sh_inbox <- [];
  let order = ref [] in
  let tbl : (string, work_item list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((n : node), item) ->
      match Hashtbl.find_opt tbl n.n_addr with
      | Some r -> r := item :: !r
      | None ->
        Hashtbl.add tbl n.n_addr (ref [ item ]);
        order := n :: !order)
    items;
  List.rev_map (fun (n : node) -> (n, List.rev !(Hashtbl.find tbl n.n_addr))) !order

(* Evaluate one node's share of a timestamp batch: authenticate every
   queued message, then run a single combined semi-naive fixpoint over
   the whole frontier.  May run on a pool worker; only per-node and
   mutex-guarded state is touched, and nothing is committed here. *)
let node_compute (t : t) ((n, items) : node * work_item list) :
    node * exec_ctx * float * int * int * (int * int) option =
  let t0 = Unix.gettimeofday () in
  let xc = { xc_charge = 0.0; xc_out = [] } in
  let nmsgs = ref 0 in
  let bytes = ref 0 in
  (* Causal parent for the group's combined handle span: the first
     queued message's trace context (the group coalesces several
     triggers into one handler, so one representative parent is the
     best a single span can record). *)
  let tparent = ref None in
  (* Insertions coalesce into one combined frontier, but a retraction
     is a barrier: the frontier accumulated so far must reach the
     database before the deletion pass reads it, and later insertions
     must see the post-deletion state. *)
  let frontier = ref [] in
  let flush () =
    if !frontier <> [] then begin
      process t xc n (List.rev !frontier);
      frontier := []
    end
  in
  List.iter
    (fun item ->
      match item with
      | W_fact tuple ->
        if prov_enabled t && sampled t tuple then
          Prov_store.record_base n.n_prov tuple ~key:(base_key t n);
        Tuple.Table.replace n.n_base tuple ();
        frontier := { Eval.f_tuple = tuple; Eval.f_asserter = None } :: !frontier
      | W_msg msg when msg.Net.Wire.msg_kind = Net.Wire.K_retract ->
        incr nmsgs;
        bytes := !bytes + Net.Wire.size msg;
        if !tparent = None then tparent := msg.Net.Wire.msg_trace;
        flush ();
        handle_retract t xc n msg
      | W_msg msg ->
        incr nmsgs;
        bytes := !bytes + Net.Wire.size msg;
        if !tparent = None then tparent := msg.Net.Wire.msg_trace;
        (try frontier := accept_message t n msg :: !frontier with Exit -> ())
      | W_retract tuple ->
        flush ();
        Tuple.Table.remove n.n_base tuple;
        retract_local t xc n ~lost:[ tuple ])
    items;
  flush ();
  let compute = Unix.gettimeofday () -. t0 in
  (n, xc, compute, !nmsgs, !bytes, !tparent)

(* Slab width for fanned-out verification: small enough that a
   frontier fills several slabs (overlap), large enough that slab
   bookkeeping is noise next to an RSA exponentiation. *)
let verify_chunk = 16

(* Launch the verification of every message committed since the last
   flush as asynchronous slabs on the pool: batch k's crypto runs on
   worker domains while the orchestrator executes batch k+1's events
   and fixpoints, and the verdicts are consumed by [verdict_for] at
   acceptance.  The signed bytes are re-encoded into one exact-sized
   per-flush arena (no growth, so every slice stays valid) whose
   buffer the slab closures retain until awaited. *)
let flush_verify (t : t) (sh : shard) : unit =
  match (t.pool, sh.sh_verify) with
  | None, _ | _, [] -> ()
  | Some pool, buffered ->
    sh.sh_verify <- [];
    let entries = Array.of_list (List.rev buffered) in
    let bytes_needed =
      Array.fold_left
        (fun acc pv ->
          acc
          + (if pv.pv_retract then 8 else 0)
          + 4 + String.length pv.pv_src + 4 + String.length pv.pv_dst
          + Net.Wire.tuple_wire_size pv.pv_tuple)
        0 entries
    in
    let a = Net.Arena.create ~capacity:(max 1 bytes_needed) () in
    let items =
      Array.map
        (fun pv ->
          let slice =
            if pv.pv_retract then
              Net.Wire.retract_signed_slice a ~src:pv.pv_src ~dst:pv.pv_dst
                pv.pv_tuple
            else Net.Wire.signed_slice a ~src:pv.pv_src ~dst:pv.pv_dst pv.pv_tuple
          in
          (pv.pv_auth, slice))
        entries
    in
    let futures =
      Sendlog.Auth.verify_batch_fanout ~chunk:verify_chunk pool t.cfg.auth t.directory
        items
    in
    locked t.vq_mu (fun () ->
        Array.iteri
          (fun j pv ->
            Hashtbl.replace t.vq_futures
              (pv.pv_src, pv.pv_dst, pv.pv_seq, pv.pv_retract)
              (futures.(j / verify_chunk), j mod verify_chunk))
          entries)

(* Flush every shard's cross-shard outbox onto the target queues.
   Orchestrator-only (between windows).  Entries are sorted by
   (timestamp, producing shard, per-shard order) before scheduling, so
   same-timestamp arrivals enqueue — and hence execute — in an order
   independent of which worker domain drained which shard when. *)
let flush_outboxes (t : t) : unit =
  let entries =
    Array.fold_left (fun acc sh ->
        let es = sh.sh_outbox in
        sh.sh_outbox <- [];
        List.rev_append es acc)
      [] t.shards
  in
  let entries =
    List.sort
      (fun a b ->
        match Float.compare a.ox_time b.ox_time with
        | 0 -> (
          match compare a.ox_src b.ox_src with
          | 0 -> compare a.ox_order b.ox_order
          | c -> c)
        | c -> c)
      entries
  in
  List.iter
    (fun e ->
      let tsim = t.shards.(e.ox_target).sh_sim in
      Net.Event_sim.schedule_at tsim
        ~time:(Float.max (Net.Event_sim.now tsim) e.ox_time)
        e.ox_action)
    entries

(* Drain one shard through the window ending at [limit] (exclusive, or
   inclusive for the final window and the degenerate zero-lookahead
   one).  Each step pops every event sharing the next timestamp and
   runs them: deliveries, fact installs and fact retractions park
   their dataflow work in the shard inbox (ACKs, timers and fault
   verdicts still execute inline — they are cheap and order-
   sensitive).  The parked work is then evaluated as one combined
   fixpoint per node — on [pool] when given, else on the calling
   domain — and committed in canonical group order; cross-shard
   products wait in the outbox. *)
let drain_shard (t : t) (sh : shard) ~(pool : Par.Pool.t option) ~(limit : float)
    ~(inclusive : bool) : int =
  let in_window ts = if inclusive then ts <= limit else ts < limit in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Net.Event_sim.peek_time sh.sh_sim with
    | None -> continue := false
    | Some ts when not (in_window ts) -> continue := false
    | Some _ ->
      let actions = Net.Event_sim.next_batch sh.sh_sim in
      count := !count + List.length actions;
      List.iter (fun act -> act ()) actions;
      let groups = Array.of_list (group_inbox sh) in
      if Array.length groups > 0 then begin
        Obs.Metrics.inc t.c_batches;
        Array.iter
          (fun (_, items) ->
            let len = List.length items in
            Obs.Metrics.inc ~by:len t.c_batch_items;
            Obs.Metrics.set_max t.g_group_max (float_of_int len))
          groups;
        let results =
          match pool with
          | Some pool -> Par.Pool.parallel_map pool (node_compute t) groups
          | None -> Array.map (node_compute t) groups
        in
        Array.iter
          (fun (n, xc, compute, nmsgs, bytes, tparent) ->
            commit_handler t n ~incoming_msgs:nmsgs ~incoming_bytes:bytes ~compute
              ?trace_parent:tparent xc)
          results
      end;
      (* The commits above dispatched the next frontier; start its
         verification now so it overlaps that frontier's fixpoint.  A
         shard-pinned worker's slabs mostly run between barriers (idle
         workers drain them); an awaited slab that has not started is
         stolen and run inline. *)
      flush_verify t sh
  done;
  !count

(* The runtime's one event loop, behind both [run] and [advance]: find
   the global minimum timestamp, open a window of one lookahead, drain
   every shard through it (each drain pinned to its shard via
   [cur_shard_key]), then exchange the buffered cross-shard events at
   the barrier.  A single shard has infinite lookahead, so the whole
   horizon is one window drained on the calling domain, its node
   groups evaluated on the pool when there is one.  Several shards are
   drained on the pool, each evaluating its groups sequentially
   ([Par.Pool] is not reentrant).  Safety: every cross-shard
   interaction is delayed by at least the lookahead (delivery latency,
   ACK latency, retransmit latency are all >= the minimum cross-shard
   link latency), so nothing produced inside a window can land inside
   it.  Progress: the shard owning the minimum executes at least one
   event per round; with zero lookahead the window degenerates to
   exactly that timestamp, and replies are strictly later (handler
   durations are positive), so rounds always advance. *)
let drive (t : t) ~(until : float) : int =
  let k = Array.length t.shards in
  let drain ~pool ~limit ~inclusive i =
    Domain.DLS.set cur_shard_key i;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set cur_shard_key (-1))
      (fun () -> drain_shard t t.shards.(i) ~pool ~limit ~inclusive)
  in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    flush_outboxes t;
    let tmin =
      Array.fold_left
        (fun acc sh ->
          match Net.Event_sim.peek_time sh.sh_sim with
          | Some ts -> ( match acc with Some a -> Some (Float.min a ts) | None -> Some ts)
          | None -> acc)
        None t.shards
    in
    match tmin with
    | None -> continue := false
    | Some ts when ts > until -> continue := false
    | Some ts ->
      let limit, inclusive =
        if t.lookahead > 0.0 && ts +. t.lookahead <= until then
          (ts +. t.lookahead, false)
        else if t.lookahead > 0.0 then (until, true)
        else (ts, true)
      in
      let drained =
        if k = 1 then drain ~pool:t.pool ~limit ~inclusive 0
        else
          Array.fold_left ( + ) 0
            (Par.Pool.parallel_map (Option.get t.pool)
               (drain ~pool:None ~limit ~inclusive)
               (Array.init k Fun.id))
      in
      count := !count + drained
  done;
  (* Deliver any events parked at the horizon so a later [run] resumes
     from a consistent queue. *)
  flush_outboxes t;
  !count

type run_result = {
  wall_seconds : float; (* real CPU time: the paper's completion time *)
  sim_seconds : float; (* simulated network time at quiescence *)
  events : int;
}

(* Run to distributed fixpoint (event-queue quiescence).  Under
   tracing, the whole run is one root span on the virtual clock, so
   its [dur] is the query-completion time and the per-node-group
   "handle" spans nest beneath it. *)
let run ?(until = Float.infinity) (t : t) : run_result =
  let go () =
    let t0 = Unix.gettimeofday () in
    let events = drive t ~until in
    let wall = Unix.gettimeofday () -. t0 in
    { wall_seconds = wall; sim_seconds = now t; events }
  in
  match t.tracer with
  | Some tr -> Obs.Trace.with_span tr ~attrs:[ ("config", Config.name t.cfg) ] "run" go
  | None -> go ()

let prov_log (t : t) : Store.Prov_log.t option = t.prov_log

(* Checkpoint still-live provenance into the offline log as 'L'
   frames and flush digests, so a query over the directory after this
   process exits covers live tuples too — the byte-identity
   acceptance path for offline-vs-online traceback. *)
let sync_prov_log (t : t) : unit =
  match t.prov_log with
  | None -> ()
  | Some log ->
    let at = now t in
    List.iter
      (fun n ->
        let domain = as_domain_of t.topo n.n_addr in
        List.iter
          (fun r ->
            Store.Prov_log.append log (log_record_of_offline ~node:n.n_addr ~domain ~live:true r))
          (Prov_store.live_records n.n_prov ~now:at))
      (nodes t);
    Store.Prov_log.flush log

(* Join the worker domains (OCaml caps live domains, so long-lived
   processes that create many runtimes must release them), and release
   the offline log's file handles. *)
let shutdown (t : t) : unit =
  (match t.prov_log with Some log -> Store.Prov_log.close log | None -> ());
  match t.pool with Some pool -> Par.Pool.shutdown pool | None -> ()

(* Advance simulated time by [seconds] — and no further.  (The
   original implementation ran the queue without [~until], so any
   event scheduled beyond the horizon fast-forwarded the clock past it
   and expired every TTL on the spot; events beyond the horizon now
   stay queued.)  Expired soft state is then evicted in deterministic
   node order, its provenance retired to the offline log, and
   everything derived from it incrementally retracted.  Retraction
   fallout addressed to other nodes is queued and delivered by the
   next [run] or [advance]. *)
let advance (t : t) ~(seconds : float) : unit =
  let horizon = now t +. seconds in
  (* Marker events: carry every shard's clock to the horizon even when
     its queue drains early, so TTL eviction sees one coherent time. *)
  Array.iter
    (fun sh -> Net.Event_sim.schedule_at sh.sh_sim ~time:horizon (fun () -> ()))
    t.shards;
  ignore (drive t ~until:horizon);
  let now = now t in
  List.iter
    (fun n ->
      let evicted = Db.evict_expired n.n_db ~now in
      if evicted <> [] then begin
        (* Expiry withdraws a tuple's external support — the local
           installation and any senders: soft state a peer does not
           refresh within its TTL dies.  Tuples still derivable from
           live state are reinstated by the retraction pass (with
           freshly captured provenance). *)
        List.iter
          (fun tuple ->
            Tuple.Table.remove n.n_base tuple;
            Tuple.Table.remove n.n_recv_from tuple;
            Prov_store.retire n.n_prov tuple ~now)
          evicted;
        with_processing t n (fun xc -> retract_local t xc n ~lost:evicted)
      end)
    (nodes t)

(* --- queries ---------------------------------------------------------- *)

let query (t : t) ~(at : string) (rel : string) : Tuple.t list =
  Db.tuples_of (node t at).n_db rel

let query_all (t : t) (rel : string) : (string * Tuple.t) list =
  List.concat_map
    (fun n -> List.map (fun tu -> (n.n_addr, tu)) (Db.tuples_of n.n_db rel))
    (nodes t)

(* Resolve a tuple identity string (e.g. "link(a,b,1)") to the live
   tuple at a node, for identity-keyed queries against the live
   backend.  The relation prefix narrows the scan. *)
let find_tuple (t : t) ~(at : string) ~(ident : string) : Tuple.t option =
  let rel =
    match String.index_opt ident '(' with
    | Some i -> String.sub ident 0 i
    | None -> ident
  in
  List.find_opt
    (fun tu -> String.equal (Tuple.interned_identity tu) ident)
    (Db.tuples_of (node t at).n_db rel)

let provenance_of (t : t) ~(at : string) (tuple : Tuple.t) : Provenance.Prov_expr.t =
  Prov_store.expr_of (node t at).n_prov tuple

let condensed_annotation (t : t) ~(at : string) (tuple : Tuple.t) : string =
  Provenance.Condense.annotation t.prov_ctx (provenance_of t ~at tuple)

let stats (t : t) : Net.Stats.t = t.stats

let tuples_retracted (t : t) : int = t.tuples_retracted

let dropped_forged (t : t) : int = t.stats.Net.Stats.dropped_forged

let config (t : t) : Config.t = t.cfg

let topology (t : t) : Net.Topology.t = t.topo

(* The default shard's simulator, for tests and tools that schedule
   probe events directly; with [shards = 1] this is the engine's only
   queue.  Use {!now} for the virtual clock — under sharding each
   shard keeps its own. *)
let sim (t : t) : Net.Event_sim.t = t.shards.(0).sh_sim

let shard_count (t : t) : int = Array.length t.shards

let directory (t : t) : Sendlog.Principal.directory = t.directory

(* Whether [addr] is fail-stopped at the current virtual time; the
   basis for traceback's graceful degradation. *)
let is_node_down (t : t) (addr : string) : bool =
  Net.Fault.is_down t.cfg.Config.fault ~now:(now t) addr

(* Swap a node's signing identity (adversary simulation in tests: a
   rogue principal whose signatures the directory can't verify). *)
let replace_principal (t : t) ~(at : string) (p : Sendlog.Principal.t) : unit =
  let n = node t at in
  Hashtbl.replace t.nodes at { n with n_principal = p }

(* --- telemetry -------------------------------------------------------- *)

let event_log (t : t) : Obs.Events.log = t.obs_events

let tracer (t : t) : Obs.Trace.t option = t.tracer

let set_tracer (t : t) (tr : Obs.Trace.t) : unit = t.tracer <- Some tr

(* Attach a tracer whose primary clock is the simulator's virtual
   clock (wall-clock durations are recorded alongside). *)
let enable_tracing (t : t) : Obs.Trace.t =
  let tr = Obs.Trace.create ~clock:(fun () -> now t) () in
  t.tracer <- Some tr;
  tr

let set_message_tap (t : t) (tap : float -> Net.Wire.message -> unit) : unit =
  t.on_message <- Some tap

(* Total provenance storage across nodes, for the ablations. *)
let total_storage (t : t) : Prov_store.storage =
  List.fold_left
    (fun acc n ->
      let s = Prov_store.storage n.n_prov in
      { Prov_store.st_online_entries = acc.Prov_store.st_online_entries + s.st_online_entries;
        st_online_expr_bytes = acc.st_online_expr_bytes + s.st_online_expr_bytes;
        st_online_pointer_bytes = acc.st_online_pointer_bytes + s.st_online_pointer_bytes })
    { Prov_store.st_online_entries = 0; st_online_expr_bytes = 0; st_online_pointer_bytes = 0 }
    (nodes t)
