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

(* A node's reliable-delivery state.  Every entry is touched only on
   the node's own shard: the sender numbers its messages and records
   them as pending when it commits a handler, its retransmit timers
   run on its shard, ACKs are delivered to it, and the receiver alone
   deduplicates.  So the tables need no lock. *)
type reliable = {
  r_next_seq : (string, int) Hashtbl.t;
      (* next sequence number on the channel to each destination *)
  r_pending : (string * int, unit) Hashtbl.t;
      (* sends awaiting an ACK, keyed (dst, seq) *)
  r_seen : (string * int, int) Hashtbl.t;
      (* receiver-side dedup: processed-delivery count per (src, seq) *)
}

type node = {
  n_addr : string;
  n_principal : Sendlog.Principal.t;
  n_db : Db.t;
  n_prov : Prov_store.t;
      (* provenance, and in every mode the one record of the senders
         standing behind each received tuple, which retraction reads
         as external support *)
  n_support : Support.t;
      (* support graph for incremental deletion; maintained
         unconditionally (unlike the provenance store, whose capture is
         gated by the configuration) so retraction correctness never
         depends on provenance settings *)
  n_base : unit Tuple.Table.t;
      (* locally installed base facts: tuples with external support
         that survives the loss of every recorded derivation *)
  n_sent_cache : (string, unit) Hashtbl.t Tuple.Addr_table.t;
      (* dedup of identical sends, keyed (dest, tuple) with the
         provenance variant one level down, so a retraction notice can
         drop every variant of one (dest, tuple) in O(1) *)
  mutable n_free_at : float; (* virtual time until which this node's CPU is busy *)
  n_parked : work_item Queue.t;
      (* receive queue: every unit of work that reached the node and
         waits for its CPU, in arrival order.  One wake event runs the
         whole queue as one handler once the CPU is free, so nothing
         overtakes earlier work on the same channel (retract/assert
         wire order is load-bearing) *)
  mutable n_wake_at : float;
      (* time of the armed wake event, or -1.0 when none is pending *)
  n_reliable : reliable;
}

(* One unit of node work: a delivered data or retract message, a
   base-fact installation, a local base-fact retraction, or soft state
   that expired at an [advance] horizon. *)
and work_item =
  | W_msg of Net.Wire.message
  | W_fact of Tuple.t
  | W_retract of Tuple.t
  | W_expire of Tuple.t list

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
   sends accumulated while a node's handler runs.  One per handler, so
   handlers on different domains never share it. *)
type exec_ctx = {
  mutable xc_charge : float;
  mutable xc_out : outgoing list; (* reversed *)
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
   plus the cross-shard outbox of its current window.  With
   [Config.shards = 1] there is exactly one shard, drained as a single
   window. *)
type shard = {
  sh_id : int;
  sh_sim : Net.Event_sim.t;
  mutable sh_outbox : outbox_entry list; (* reversed production order *)
  mutable sh_order : int; (* monotone outbox tiebreak counter *)
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
      (* worker domains that drain the shards; none with one shard *)
  obs_events : Obs.Events.log; (* bounded structured event log *)
  mutable tracer : Obs.Trace.t option; (* span tree, when tracing is on *)
  h_handler : Obs.Metrics.histogram; (* modeled per-handler duration *)
  h_compute : Obs.Metrics.histogram; (* measured CPU per handler *)
  c_handlers : Obs.Metrics.counter; (* handlers run *)
  c_handler_items : Obs.Metrics.counter; (* work items across all handlers *)
  c_flows : Obs.Metrics.counter; (* 1/K-sampled flows written to the log *)
  g_handler_items_max : Obs.Metrics.gauge; (* most work items one handler ran *)
  g_crashed : Obs.Metrics.gauge; (* nodes failed-stop when [drive] returns *)
  tuples_retracted : int Atomic.t;
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
   each window drain, -1 elsewhere (the orchestrator between
   drains). *)
let cur_shard_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let shard_of (t : t) (addr : string) : int =
  Option.value (Hashtbl.find_opt t.shard_ids addr) ~default:0

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

let create ?(directory : Sendlog.Principal.directory option) ~(rng : Crypto.Rng.t)
    ~(cfg : Config.t) ~(topo : Net.Topology.t) ~(program : Ndlog.Ast.program) () : t =
  let compiled = Sendlog.Compile.compile program in
  let directory =
    match directory with
    | Some d -> d
    | None ->
      Sendlog.Principal.directory_for rng ~rsa_bits:cfg.rsa_bits topo.Net.Topology.nodes
  in
  (* Persisted offline provenance log: every node's retire path writes
     through to it, so expired tuples remain traceable after the
     process exits (Section 4.2). *)
  let prov_log =
    Option.map (fun dir -> Store.Prov_log.open_log ~dir ()) cfg.Config.prov_log
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
          n_prov =
            Prov_store.create ~node:addr ~domain:(as_domain_of topo addr) ~prov:cfg.prov
              ~log:prov_log;
          n_support = Support.create ();
          n_base = Tuple.Table.create 64;
          n_sent_cache = Tuple.Addr_table.create 256;
          n_free_at = 0.0;
          n_parked = Queue.create ();
          n_wake_at = -1.0;
          n_reliable =
            { r_next_seq = Hashtbl.create 8;
              r_pending = Hashtbl.create 16;
              r_seen = Hashtbl.create 16 } })
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
          sh_outbox = [];
          sh_order = 0 })
  in
  (* Several shards drain on a pool sized to the shard count and the
     host (shards beyond the hardware parallelism just queue). *)
  let pool =
    if shard_count > 1 then
      Some
        (Par.Pool.create
           ~jobs:(min shard_count (max 2 (Domain.recommended_domain_count ()))))
    else None
  in
  let t =
    { cfg;
      shards;
      shard_ids;
      lookahead;
      topo;
      stats = Net.Stats.create ();
      directory;
      compiled;
      nodes;
      prov_ctx = Provenance.Condense.create_ctx ();
      prov_mu = Mutex.create ();
      prov_log;
      pool;
      obs_events = Obs.Events.create ~capacity:8192 ();
      tracer = None;
      h_handler = Obs.Metrics.histogram reg "runtime.handler_seconds";
      h_compute = Obs.Metrics.histogram reg "runtime.handler_compute_seconds";
      c_handlers = Obs.Metrics.counter reg "par.batches";
      c_handler_items = Obs.Metrics.counter reg "par.batch_items";
      c_flows = Obs.Metrics.counter reg "forensics.flows_recorded";
      g_handler_items_max = Obs.Metrics.gauge reg "par.group_items_max";
      g_crashed = Obs.Metrics.gauge reg "sim.crashed_nodes";
      tuples_retracted = Atomic.make 0;
      on_message = None }
  in
  Obs.Metrics.set t.g_crashed 0.0;
  Obs.Metrics.set (Obs.Metrics.gauge reg "sim.shards") (float_of_int shard_count);
  t

(* --- provenance capture ---------------------------------------------- *)

(* Is this tuple's provenance recorded at all?  The log's 1-in-K
   hash on the tuple identity implements Section 5's sampling
   optimisation without extra RNG state; the same knob thins the
   log's flow records.  [K <= 1] is tested first so unsampled runs
   never render the identity. *)
let sampled (t : t) (tuple : Tuple.t) : bool =
  t.cfg.prov_sample_k <= 1
  || Store.Prov_log.sampled ~k:t.cfg.prov_sample_k (Tuple.identity tuple)

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

(* Expression of a body tuple as seen at [n].  A live tuple without
   an entry is a base fact whose installation was not sampled, and is
   registered on first use.  A tuple with an entry has the expression
   its records give, zero included: a copy whose sender shipped no
   provenance is not a base of this node.  A body that is no longer
   live (a keyed relation displaced it after the derivation was found)
   contributes zero and gets no entry: its provenance has retired. *)
let body_expr (t : t) (n : node) (tuple : Tuple.t) : Provenance.Prov_expr.t =
  if Db.mem n.n_db tuple && not (Prov_store.mem n.n_prov tuple) then
    Prov_store.record_base n.n_prov tuple ~key:(base_key t n);
  Prov_store.expr_of n.n_prov tuple

(* Record one derivation in [n]'s provenance store and return its
   combined expression, which a send ships: the product of its bodies'
   under local provenance, zero under distributed provenance, which
   records the pointers alone and leaves expressions to traceback. *)
let capture_derivation (t : t) (n : node) (deriv : Eval.derivation) :
    Provenance.Prov_expr.t =
  if (not (prov_enabled t)) || not (sampled t deriv.d_head) then
    Provenance.Prov_expr.zero
  else begin
    let combined =
      if t.cfg.prov = Config.Prov_local then
        Provenance.Prov_expr.times_list
          (List.map (fun (b, _) -> body_expr t n b) deriv.d_body)
      else Provenance.Prov_expr.zero
    in
    let record =
      { Store.Prov_log.d_rule = deriv.d_rule;
        d_body =
          List.map
            (fun (b, asserter) ->
              { Store.Prov_log.b_tuple = b; b_says = Option.map Value.to_addr asserter })
            deriv.d_body;
        d_at = now t;
        d_signature = None }
    in
    let record =
      if t.cfg.sign_provenance then begin
        Net.Stats.record_signature t.stats;
        { record with
          d_signature =
            Sendlog.Auth.sign_provenance_node t.cfg.auth n.n_principal
              ~node_repr:(Store.Prov_log.node_repr deriv.d_head record) }
      end
      else record
    in
    Prov_store.record_derivation n.n_prov deriv.d_head ~record;
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

(* Decoding reads only the block (it rebuilds the BDD in a scratch
   manager and never touches the shared context), so it runs outside
   [prov_mu]. *)
let decode_prov (t : t) (block : string) : Provenance.Prov_expr.t =
  try Provenance.Condense.of_wire t.prov_ctx block
  with Bdd.Deserialize_error _ | Provenance.Condense.Wire_error _ ->
    Provenance.Prov_expr.zero

(* --- message plumbing ------------------------------------------------ *)

let deliver : (t -> node -> Net.Wire.message -> unit) ref =
  ref (fun _ _ _ -> assert false)

(* Per-channel sequence numbers: the sender's pending table is keyed
   (dst, seq) and the receiver's dedup table (src, seq), so numbers
   must be unique per channel, not globally. *)
let next_seq (sender : node) ~(dst : string) : int =
  let seqs = sender.n_reliable.r_next_seq in
  let s = Option.value (Hashtbl.find_opt seqs dst) ~default:0 in
  Hashtbl.replace seqs dst (s + 1);
  s

(* --- faulty transport ------------------------------------------------ *)

(* A message's fault-verdict identity: its content tuple under a
   per-kind prefix ("" for data, "r|" for a retraction, "ack|" for the
   ACK of a data message), so the kinds never share verdicts. *)
type fault_ident = {
  fi_prefix : string;
  fi_tuple : Tuple.t;
}

(* One transmission attempt over the (possibly faulty) network: asks
   the fault model how many copies arrive and with what extra delay.
   Verdicts are keyed by [ident], the message's content, so a
   [--fault-seed] run's fate per message is independent of the
   enqueue-order-dependent channel sequence numbers and reproduces
   across [--shards] values.  The identity string that seeds a verdict
   is rendered only when the fault model can misbehave. *)
let transmit (t : t) ~(delay : float) (receiver : node) (msg : Net.Wire.message)
    ~(attempt : int) ~(ident : fault_ident) : unit =
  let fault = t.cfg.Config.fault in
  let deliveries =
    if Net.Fault.is_ideal fault then [ 0.0 ]
    else
      Net.Fault.decide fault ~src:msg.Net.Wire.msg_src ~dst:msg.Net.Wire.msg_dst
        ~ident:(ident.fi_prefix ^ Tuple.identity ident.fi_tuple)
        ~attempt
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
let rec reliable_send (t : t) (sender : node) (receiver : node) (msg : Net.Wire.message)
    ~(delay : float) ~(latency : float) ~(attempt : int) ~(ident : fault_ident) : unit =
  transmit t ~delay receiver msg ~attempt ~ident;
  let pending = sender.n_reliable.r_pending in
  let key = (msg.Net.Wire.msg_dst, msg.Net.Wire.msg_seq) in
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
    if Hashtbl.mem pending key then begin
      let now = now t in
      let fault = t.cfg.Config.fault in
      if Net.Fault.is_down fault ~now msg.Net.Wire.msg_src then
        match Net.Fault.restart_after fault ~now msg.Net.Wire.msg_src with
        | Some at -> sched_at_to t msg.Net.Wire.msg_src ~time:at on_timer
        | None ->
          (* The sender never comes back; nobody will retransmit. *)
          Hashtbl.remove pending key;
          Net.Stats.record_retry_exhausted t.stats;
          emit_retry_exhausted ~at:now ~reason:"sender_failed"
      else if attempt >= t.cfg.Config.retry_limit then begin
        Hashtbl.remove pending key;
        Net.Stats.record_retry_exhausted t.stats;
        emit_retry_exhausted ~at:now ~reason:"retry_limit"
      end
      else begin
        Net.Stats.record_retransmit t.stats;
        (* The retransmitted copy costs real bandwidth. *)
        Net.Stats.record_message t.stats msg;
        reliable_send t sender receiver msg ~delay:latency ~latency
          ~attempt:(attempt + 1) ~ident
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
let dispatch (t : t) (sender : node) (receiver : node) (msg : Net.Wire.message)
    ~(delay : float) ~(latency : float) : unit =
  let ident =
    { fi_prefix =
        (match msg.Net.Wire.msg_kind with
        | Net.Wire.K_retract -> "r|"
        | Net.Wire.K_data | Net.Wire.K_ack -> "");
      fi_tuple = msg.Net.Wire.msg_tuple }
  in
  if t.cfg.Config.reliable then begin
    Hashtbl.replace sender.n_reliable.r_pending
      (msg.Net.Wire.msg_dst, msg.Net.Wire.msg_seq)
      ();
    reliable_send t sender receiver msg ~delay ~latency ~attempt:0 ~ident
  end
  else transmit t ~delay receiver msg ~attempt:0 ~ident

(* Prepare an emitted tuple for the wire: capture provenance, dedup
   against the sender's sent cache, and sign what is sent.  Everything
   here is either per-node state or mutex-guarded, so shards prepare
   (and in particular sign) concurrently.  The message is *not*
   released: it joins [xc.xc_out] and is committed in canonical order
   once the handler's duration is known. *)
let send (t : t) (xc : exec_ctx) (sender : node) (emit : Eval.emit) : unit =
  let tuple = emit.e_tuple in
  (* Record the derivation at the sender (distributed traceback walks
     these pointers back through the node that derived the tuple) and
     obtain the combined expression of this derivation. *)
  let combined = capture_derivation t sender emit.e_deriv in
  (* The combined expression ships with the tuple (the receiver
     Plus-combines alternatives); it is zero, and nothing ships, unless
     provenance is local and the tuple sampled.  AS-level granularity
     (Section 5.3): a tuple crossing a domain boundary ships its
     provenance summarized to the origin domain's single base key;
     intra-domain sends keep node-level detail. *)
  let prov_block =
    if Provenance.Prov_expr.equal combined Provenance.Prov_expr.zero then None
    else begin
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
      xc.xc_charge <- xc.xc_charge +. t.cfg.cost_model.per_provenance_seconds;
      Some (encode_prov t shipped)
    end
  in
  let cache_group = (emit.e_dest, tuple) in
  let cache_variant = Option.value prov_block ~default:"" in
  let variants =
    match Tuple.Addr_table.find_opt sender.n_sent_cache cache_group with
    | Some v -> v
    | None ->
      let v = Hashtbl.create 4 in
      Tuple.Addr_table.add sender.n_sent_cache cache_group v;
      v
  in
  (* A deduplicated re-emission is neither signed nor sent. *)
  if not (Hashtbl.mem variants cache_variant) then begin
    Hashtbl.add variants cache_variant ();
    (* The signed bytes live in the domain's scratch arena only long
       enough to be digested by [make_auth_slice]; no string is ever
       materialized on this path. *)
    let bytes =
      Net.Wire.signed_slice (Net.Arena.scratch ()) ~src:sender.n_addr
        ~dst:emit.e_dest tuple
    in
    let auth = Sendlog.Auth.make_auth_slice t.cfg.auth sender.n_principal bytes in
    (match t.cfg.auth with
    | Sendlog.Auth.Auth_rsa -> Net.Stats.record_signature t.stats
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

let self_principal_of (t : t) (n : node) : Value.t option =
  match t.cfg.auth with
  | Sendlog.Auth.Auth_none -> None
  | _ -> Some (Value.V_str n.n_addr)

(* Derivation callback shared by the forward fixpoint and the
   retraction pass's re-derivations, so a replayed derivation leaves
   the same provenance as the original. *)
let on_derive_for (t : t) (n : node) : Eval.derivation -> unit =
 fun deriv -> ignore (capture_derivation t n deriv)

(* A replace policy displaced [old]: its provenance is historical state
   now, so it retires to the offline log (when one is configured)
   rather than lingering online as if [old] were still live. *)
let on_replace_for (t : t) (n : node) : Tuple.t -> unit =
 fun old -> Prov_store.retire n.n_prov old ~now:(now t)

(* --- incremental deletion (DRed) -------------------------------------- *)

(* External (non-derived) support for a tuple at [n], as asserter
   options for re-insertion: a locally installed base fact supports
   itself with no asserter; every sender still standing behind a
   received copy (its provenance store's senders) supports it under
   that sender's principal (or no asserter when the run does not
   authenticate, matching what [accept_message] would have
   recorded). *)
let external_support (t : t) (n : node) (tuple : Tuple.t) : Value.t option list =
  let base = if Tuple.Table.mem n.n_base tuple then [ None ] else [] in
  let senders =
    match List.sort String.compare (Prov_store.received_from n.n_prov tuple) with
    | [] -> []
    | _ when t.cfg.auth = Sendlog.Auth.Auth_none -> [ None ]
    | sorted -> List.map (fun src -> Some (Value.V_str src)) sorted
  in
  base @ senders

(* Forget every cached send of [tuple] to [dest]; true when at least
   one variant had actually been sent.  A retraction notice is only
   worth a message when the peer got the assertion in the first place
   (a support record whose emit was deduped, or a head retracted twice
   with no re-send in between, has nothing to withdraw). *)
let clear_sent (n : node) (dest : string) (tuple : Tuple.t) : bool =
  let group = (dest, tuple) in
  let was = Tuple.Addr_table.mem n.n_sent_cache group in
  Tuple.Addr_table.remove n.n_sent_cache group;
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
  | Sendlog.Auth.Auth_rsa -> Net.Stats.record_signature t.stats
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
  List.iter (fun tuple -> Prov_store.retire n.n_prov tuple ~now) res.Eval.rr_deleted;
  List.iter
    (fun (d : Eval.derivation) ->
      Prov_store.remove_derivation n.n_prov d.Eval.d_head ~now ~rule:d.Eval.d_rule
        ~body:
          (List.map
             (fun (b, asserter) -> (b, Option.map Value.to_addr asserter))
             d.Eval.d_body))
    res.Eval.rr_invalidated;
  ignore (Atomic.fetch_and_add t.tuples_retracted (List.length res.Eval.rr_deleted));
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
  let emits =
    Eval.run_fixpoint n.n_db ~now:(now t)
      ~rules:t.compiled.c_rules ~local:(Some n.n_addr) ?self_principal
      ~support:n.n_support ~on_replace ~pending
      ~on_derive:(on_derive_for t n) ()
  in
  List.iter (send t xc n) emits;
  drain_displaced t xc n displaced

(* Check an incoming message's authentication over its signed bytes,
   in the handler that accepts the message (so the node is charged for
   the check), and account for the verdict: a checked signature counts
   as verified; a forged one counts as a failed verification and a
   dropped message, and leaves an [E_forged_dropped] event. *)
let verify_and_account (t : t) (receiver : node) (msg : Net.Wire.message)
    (bytes : Net.Arena.slice) : Sendlog.Auth.verdict =
  let verdict =
    Sendlog.Auth.verify_slice t.cfg.auth t.directory msg.Net.Wire.msg_auth bytes
  in
  (match verdict with
  | Sendlog.Auth.Verified _ -> (
    match t.cfg.auth with
    | Sendlog.Auth.Auth_rsa -> Net.Stats.record_verification t.stats ~ok:true
    | Sendlog.Auth.Auth_none | Sendlog.Auth.Auth_cleartext -> ())
  | Sendlog.Auth.Unsigned -> ()
  | Sendlog.Auth.Forged _ ->
    Net.Stats.record_verification t.stats ~ok:false;
    Net.Stats.record_forged t.stats;
    Obs.Events.emit t.obs_events ~at:(now t)
      (Obs.Events.E_forged_dropped
         { node = receiver.n_addr; src = msg.Net.Wire.msg_src }));
  verdict

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
    Net.Wire.retract_signed_slice (Net.Arena.scratch ()) ~src ~dst:msg.Net.Wire.msg_dst
      tuple
  in
  match verify_and_account t receiver msg bytes with
  | Sendlog.Auth.Forged _ -> ()
  | Sendlog.Auth.Verified _ | Sendlog.Auth.Unsigned ->
    Prov_store.remove_received receiver.n_prov tuple ~now:(now t) ~from:src;
    if Db.mem receiver.n_db tuple then retract_local t xc receiver ~lost:[ tuple ]

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
          msg_seq = next_seq n ~dst:o.o_dest;
          msg_tuple = o.o_tuple;
          msg_auth = o.o_auth;
          msg_provenance = o.o_prov;
          msg_trace = trace_ctx }
      in
      Net.Stats.record_message t.stats msg;
      (* Offline-log capture during ordinary runs (Section 5.2): every
         released data shipment is a flow edge; a deterministic 1-in-K
         hash of the flow key decides whether to record it, and the
         sender's per-epoch Bloom digest remembers the tuple for
         membership pre-filtering during sampled traceback. *)
      (match t.prov_log with
      | Some log when o.o_kind = Net.Wire.K_data ->
        let ident = Tuple.identity o.o_tuple in
        let key = n.n_addr ^ ">" ^ o.o_dest ^ "|" ^ ident in
        if Store.Prov_log.sampled ~k:t.cfg.Config.prov_sample_k key then begin
          Store.Prov_log.append_flow log ~src:n.n_addr ~dst:o.o_dest ~time:now ~ident;
          Store.Prov_log.record_digest log ~node:n.n_addr ~time:now ident;
          Obs.Metrics.inc t.c_flows
        end
      | _ -> ());
      (match t.on_message with
      | Some tap -> tap now msg
      | None -> ());
      match o.o_receiver with
      | None -> () (* destination outside the simulation: counted, dropped *)
      | Some r -> dispatch t n r msg ~delay:(depart +. o.o_latency) ~latency:o.o_latency)
    outgoing

(* Authenticate an incoming data message and record its shipped
   provenance, returning the frontier item for the receiver's local
   fixpoint.  Raises [Exit] on a forged message (the verification work
   is still charged to the node).  Touches only per-node or
   mutex-guarded state, so shards on pool workers call it
   concurrently. *)
let accept_message (t : t) (receiver : node) (msg : Net.Wire.message) :
    Eval.frontier_item =
  let tuple = msg.Net.Wire.msg_tuple in
  let bytes =
    Net.Wire.signed_slice (Net.Arena.scratch ()) ~src:msg.Net.Wire.msg_src
      ~dst:msg.Net.Wire.msg_dst tuple
  in
  let asserter =
    match verify_and_account t receiver msg bytes with
    | Sendlog.Auth.Verified p -> Some (Value.V_str p)
    | Sendlog.Auth.Unsigned -> None
    | Sendlog.Auth.Forged _ -> raise Exit
  in
  (* The sender now stands behind this tuple: external support that
     keeps it alive through retraction passes until the sender
     retracts it (or soft-state expiry withdraws it), and the pointer
     traceback follows.  Its shipped provenance is recorded before
     evaluation so downstream derivations can fold it in. *)
  let expr =
    match msg.Net.Wire.msg_provenance with
    | Some block when prov_enabled t -> decode_prov t block
    | Some _ | None -> Provenance.Prov_expr.zero
  in
  Prov_store.record_received receiver.n_prov tuple ~from:msg.Net.Wire.msg_src ~expr;
  { Eval.f_tuple = tuple; f_asserter = asserter }

(* Acknowledge a data message back to its sender.  ACKs ride the same
   faulty network but are never themselves retransmitted: a lost ACK
   surfaces as a data retransmission, which is re-acknowledged with a
   fresh fault verdict ([attempt] counts the deliveries seen). *)
let send_ack (t : t) (receiver : node) (data : Net.Wire.message) ~(attempt : int) :
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
      ~ident:{ fi_prefix = "ack|"; fi_tuple = data.Net.Wire.msg_tuple }

(* Reliable delivery: every copy is acknowledged (the first ACK may
   have been lost), but only the first is processed.  Retractions
   share the channel's sequence space, so the same dedup covers
   them. *)
let fresh_delivery (t : t) (receiver : node) (msg : Net.Wire.message) : bool =
  (not t.cfg.Config.reliable)
  || begin
       let seen = receiver.n_reliable.r_seen in
       let key = (msg.Net.Wire.msg_src, msg.Net.Wire.msg_seq) in
       let count = Option.value (Hashtbl.find_opt seen key) ~default:0 in
       Hashtbl.replace seen key (count + 1);
       send_ack t receiver msg ~attempt:count;
       count = 0
     end

(* The node's one handler: run everything in its receive queue, in
   arrival order, as one unit of CPU work, then commit it.  Messages
   that waited for a node that has since crashed are lost (the
   reliable layer's retransmits outlive the outage); installed facts
   and expired soft state are processed regardless.  A fresh message is
   acknowledged and dedup-checked here, so the ACK leaves when the
   node reads the message.  Insertions coalesce into one combined
   semi-naive frontier, but a retraction is a barrier: the frontier
   accumulated so far must reach the database before the deletion pass
   reads it, and later insertions must see the post-deletion state. *)
let handle (t : t) (n : node) : unit =
  let items = List.of_seq (Queue.to_seq n.n_parked) in
  Queue.clear n.n_parked;
  let len = List.length items in
  Obs.Metrics.inc t.c_handlers;
  Obs.Metrics.inc ~by:len t.c_handler_items;
  Obs.Metrics.set_max t.g_handler_items_max (float_of_int len);
  let t0 = Unix.gettimeofday () in
  let xc = { xc_charge = 0.0; xc_out = [] } in
  let down = Net.Fault.is_down t.cfg.Config.fault ~now:(now t) n.n_addr in
  let nmsgs = ref 0 in
  let bytes = ref 0 in
  (* Causal parent of the handler's span: the first message that
     carried a trace context (one span covers every item, so one
     representative parent is the best it can record). *)
  let tparent = ref None in
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
      | W_msg _ when down -> Net.Stats.record_drop t.stats
      | W_msg msg ->
        if fresh_delivery t n msg then begin
          Net.Stats.record_received t.stats msg;
          incr nmsgs;
          bytes := !bytes + Net.Wire.size msg;
          if !tparent = None then tparent := msg.Net.Wire.msg_trace;
          match msg.Net.Wire.msg_kind with
          | Net.Wire.K_retract ->
            flush ();
            handle_retract t xc n msg
          | Net.Wire.K_data | Net.Wire.K_ack -> (
            try frontier := accept_message t n msg :: !frontier with Exit -> ())
        end
      | W_fact tuple ->
        if prov_enabled t && sampled t tuple then
          Prov_store.record_base n.n_prov tuple ~key:(base_key t n);
        Tuple.Table.replace n.n_base tuple ();
        frontier := { Eval.f_tuple = tuple; Eval.f_asserter = None } :: !frontier
      | W_retract tuple ->
        flush ();
        Tuple.Table.remove n.n_base tuple;
        retract_local t xc n ~lost:[ tuple ]
      | W_expire lost ->
        flush ();
        retract_local t xc n ~lost)
    items;
  flush ();
  let compute = Unix.gettimeofday () -. t0 in
  commit_handler t n ~incoming_msgs:!nmsgs ~incoming_bytes:!bytes ~compute
    ?trace_parent:!tparent xc

(* Arm the node's wake event at the end of its busy period (or now, if
   it is idle).  At most one wake is pending per node: the wake re-arms
   itself while the CPU is busy, and otherwise runs the handler over
   the whole queue.  A wake armed for an idle node fires after every
   event already queued for the same instant, so same-time arrivals
   join one handler. *)
let rec arm_wake (t : t) (n : node) : unit =
  if n.n_wake_at < 0.0 then begin
    let at = Float.max n.n_free_at (now t) in
    n.n_wake_at <- at;
    sched_at_to t n.n_addr ~time:at (fun () -> wake t n)
  end

and wake (t : t) (n : node) : unit =
  n.n_wake_at <- -1.0;
  if n.n_free_at > now t +. 1e-9 then arm_wake t n else handle t n

(* Queue one unit of work at the node; it runs once the CPU is free. *)
let enqueue (t : t) (n : node) (item : work_item) : unit =
  Queue.add item n.n_parked;
  arm_wake t n

(* A message arriving at a node.  A crashed node neither consumes ACKs
   nor queues data; the copy is simply lost (the reliable layer's
   retransmits outlive the outage).  An ACK is consumed on arrival by
   the sender-side reliable layer: it clears the pending entry so the
   retransmission timer stands down, and costs no CPU.  Data and
   retraction notices wait in the node's receive queue. *)
let handle_message (t : t) (receiver : node) (msg : Net.Wire.message) : unit =
  if Net.Fault.is_down t.cfg.Config.fault ~now:(now t) receiver.n_addr then
    Net.Stats.record_drop t.stats
  else
    match msg.Net.Wire.msg_kind with
    | Net.Wire.K_ack ->
      Hashtbl.remove receiver.n_reliable.r_pending
        (msg.Net.Wire.msg_src, msg.Net.Wire.msg_seq)
    | Net.Wire.K_data | Net.Wire.K_retract -> enqueue t receiver (W_msg msg)

let () = deliver := handle_message

(* --- public operations ----------------------------------------------- *)

(* Install a base fact at a node: it arrives now and waits for the
   node's CPU like a message. *)
let install_fact (t : t) ~(at : string) (tuple : Tuple.t) : unit =
  let n = node t at in
  sched_to t at ~delay:0.0 (fun () -> enqueue t n (W_fact tuple))

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
let install_links (t : t) : unit =
  List.iter
    (fun tuple -> install_fact t ~at:(Value.to_addr (Tuple.arg tuple 0)) tuple)
    (Net.Topology.link_facts t.topo)

(* Retract a base fact previously installed at a node (arriving now,
   like an install): withdraw its external support and run the
   incremental deletion pass over everything derived from it. *)
let retract_fact (t : t) ~(at : string) (tuple : Tuple.t) : unit =
  let n = node t at in
  sched_to t at ~delay:0.0 (fun () -> enqueue t n (W_retract tuple))

(* --- link churn -------------------------------------------------------- *)

(* The physical topology [t.topo] stays fixed (delivery latencies, the
   flap process's link population); churn retracts and reinstalls the
   *link facts* the program routes over, which is what the fixpoint
   depends on.  The equivalent from-scratch run is a fresh runtime on
   [Net.Topology.remove_link]-mutated topology. *)

(* The link fact [install_links] installed for a physical link. *)
let link_tuple (l : Net.Topology.link) : Tuple.t =
  Tuple.make "link"
    [ Value.V_str l.Net.Topology.l_src;
      Value.V_str l.Net.Topology.l_dst;
      Value.V_int l.Net.Topology.l_cost ]

let find_physical_link (t : t) ~(src : string) ~(dst : string) ~(op : string) :
    Net.Topology.link =
  match Net.Topology.find_link t.topo ~src ~dst with
  | Some l -> l
  | None ->
    invalid_arg (Printf.sprintf "Runtime.%s: no link %s -> %s" op src dst)

let link_down (t : t) ~(src : string) ~(dst : string) : unit =
  let l = find_physical_link t ~src ~dst ~op:"link_down" in
  retract_fact t ~at:src (link_tuple l)

let link_up (t : t) ~(src : string) ~(dst : string) : unit =
  let l = find_physical_link t ~src ~dst ~op:"link_up" in
  install_fact t ~at:src (link_tuple l)

(* Schedule a seed-reproducible Poisson flap process over every
   physical link (see [Net.Fault.flap_schedule]).  Flap times are
   relative to the current virtual time, so a caller can first run to
   the static fixpoint and then start the churn phase.  Returns the
   schedule so callers can report or assert on it. *)
let schedule_flaps (t : t) ~(rate : float) ~(horizon : float) () : Net.Fault.flap list =
  let links =
    List.map
      (fun (l : Net.Topology.link) -> (l.Net.Topology.l_src, l.Net.Topology.l_dst))
      t.topo.Net.Topology.links
  in
  let flaps =
    Net.Fault.flap_schedule t.cfg.Config.fault ~links ~rate ~horizon ()
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

(* The runtime's one event loop, behind both [run] and [advance]: find
   the global minimum timestamp, open a window of one lookahead, drain
   every shard through it with [Event_sim.run] (each drain pinned to
   its shard via [cur_shard_key]), then exchange the buffered
   cross-shard events at the barrier.  A single shard has infinite
   lookahead, so the whole horizon is one window drained on the
   calling domain; several shards drain on the pool.  Every node's
   work runs through its wake event on its own shard, one handler at a
   time.  Safety: every cross-shard interaction is delayed by at least
   the lookahead (delivery latency, ACK latency, retransmit latency are
   all >= the minimum cross-shard link latency), so nothing produced
   inside a window can land inside it.  Progress: the shard owning the
   minimum executes at least one event per round; with zero lookahead
   the window degenerates to exactly that timestamp, and replies are
   strictly later (handler durations are positive), so rounds always
   advance. *)
let drive (t : t) ~(until : float) : int =
  let k = Array.length t.shards in
  (* [limit] is exclusive unless [inclusive]: the window stops short of
     the next window's first instant. *)
  let drain ~limit ~inclusive i =
    Domain.DLS.set cur_shard_key i;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set cur_shard_key (-1))
      (fun () ->
        Net.Event_sim.run
          ~until:(if inclusive then limit else Float.pred limit)
          t.shards.(i).sh_sim)
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
        match t.pool with
        | None -> drain ~limit ~inclusive 0
        | Some pool ->
          Array.fold_left ( + ) 0
            (Par.Pool.parallel_map pool (drain ~limit ~inclusive) (Array.init k Fun.id))
      in
      count := !count + drained
  done;
  (* Deliver any events parked at the horizon so a later [run] resumes
     from a consistent queue. *)
  flush_outboxes t;
  (* The crash gauge reads the pure fail-stop schedule at the time
     reached: no event of its own, so a crash never moves the clock. *)
  let fault = t.cfg.Config.fault and now = now t in
  let down =
    List.filter_map
      (fun (c : Net.Fault.crash) ->
        if Net.Fault.is_down fault ~now c.cr_node then Some c.cr_node else None)
      fault.Net.Fault.crashes
  in
  Obs.Metrics.set t.g_crashed (float_of_int (List.length (List.sort_uniq String.compare down)));
  !count

type run_result = {
  wall_seconds : float; (* real CPU time: the paper's completion time *)
  sim_seconds : float; (* simulated network time at quiescence *)
  events : int;
}

(* Run to distributed fixpoint (event-queue quiescence).  Under
   tracing, the whole run is one root span on the virtual clock, so
   its [dur] is the query-completion time and every handler's
   "handle" span nests beneath it. *)
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
      (fun n -> List.iter (Store.Prov_log.append log) (Prov_store.live_records n.n_prov ~now:at))
      (nodes t);
    Store.Prov_log.flush log

(* Join the sharded engine's worker domains (OCaml caps live domains,
   so long-lived processes that create many runtimes must release
   them), and release the offline log's file handles. *)
let shutdown (t : t) : unit =
  (match t.prov_log with Some log -> Store.Prov_log.close log | None -> ());
  match t.pool with Some pool -> Par.Pool.shutdown pool | None -> ()

(* Soft state at [n] that has expired by now: evicted from the
   database on the spot, its provenance retired to the offline log,
   and its dependents left for the node's next handler to retract.
   Expiry withdraws a tuple's external support — the local
   installation and any senders: soft state a peer does not refresh
   within its TTL dies.  Tuples still derivable from live state are
   reinstated by the retraction pass (with freshly captured
   provenance). *)
let expire (t : t) (n : node) : unit =
  let now = now t in
  match Db.evict_expired n.n_db ~now with
  | [] -> ()
  | evicted ->
    List.iter
      (fun tuple ->
        Tuple.Table.remove n.n_base tuple;
        Prov_store.retire n.n_prov tuple ~now)
      evicted;
    enqueue t n (W_expire evicted)

(* Advance simulated time by [seconds] — and no further.  (The
   original implementation ran the queue without [~until], so any
   event scheduled beyond the horizon fast-forwarded the clock past it
   and expired every TTL on the spot; events beyond the horizon now
   stay queued.)  One expiry event per shard at the horizon carries
   the shard's clock there and evicts its nodes' expired soft state,
   in deterministic node order; each node's retraction pass then runs
   as its next handler, at the horizon if the node is idle or when its
   CPU frees.  Fallout addressed to other nodes, and the passes of
   nodes still busy at the horizon, run in the next [run] or
   [advance]. *)
let advance (t : t) ~(seconds : float) : unit =
  let horizon = now t +. seconds in
  Array.iter
    (fun sh ->
      Net.Event_sim.schedule_at sh.sh_sim ~time:horizon (fun () ->
          List.iter
            (fun n -> if shard_of t n.n_addr = sh.sh_id then expire t n)
            (nodes t)))
    t.shards;
  ignore (drive t ~until:horizon)

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
    (fun tu -> String.equal (Tuple.identity tu) ident)
    (Db.tuples_of (node t at).n_db rel)

let provenance_of (t : t) ~(at : string) (tuple : Tuple.t) : Provenance.Prov_expr.t =
  Prov_store.expr_of (node t at).n_prov tuple

let condensed_annotation (t : t) ~(at : string) (tuple : Tuple.t) : string =
  Provenance.Condense.annotation t.prov_ctx (provenance_of t ~at tuple)

let stats (t : t) : Net.Stats.t = t.stats

let tuples_retracted (t : t) : int = Atomic.get t.tuples_retracted

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
