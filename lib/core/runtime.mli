(** The provenance-aware secure networking runtime: the paper's
    modified P2 system.

    Every simulated node runs the same compiled SeNDlog/NDlog program
    over its own database.  Locally derived tuples addressed at
    another node become wire messages: encoded, authenticated
    according to the configuration (Section 2.2's [says]
    implementations), and — in the provenance-shipping configurations
    — annotated with the tuple's (condensed) provenance.  Receivers
    verify authentication, fold shipped provenance into their stores,
    and continue the distributed fixpoint; quiescence of the event
    queue is the paper's "query completion time".

    The runtime state is abstract: the per-channel sequence counters,
    the reliable layer's pending/dedup tables, and the out-buffer of
    the currently executing handler are all invariants of the
    message path, and mutating them from outside would break
    at-most-once processing.  Fault injection is configured through
    [Config.t] (see [Net.Fault]); with [reliable = true] every data
    message is ACKed and retransmitted with exponential backoff until
    acknowledged or the retry limit is reached, so a lossy run
    converges to the fault-free fixpoint. *)

open Engine

type work_item
(** One unit of node work waiting for the node's CPU: a delivered
    data or retraction message, a fact installation or retraction, or
    soft state that expired at an {!advance} horizon. *)

(** One simulated node.  The record is exposed read-only (traceback
    walks [n_prov]/[n_db] directly); use {!replace_principal} to swap
    a node's signing identity rather than mutating the table.

    A node has one CPU and one receive queue.  Everything that reaches
    it waits in [n_parked] in arrival order; one wake event at
    [max n_free_at now] runs the whole queue as one handler, re-arming
    while the CPU is busy, so a node never runs two handlers at once
    and later work never overtakes earlier work. *)
type node = {
  n_addr : string;
  n_principal : Sendlog.Principal.t;
  n_db : Db.t;
  n_prov : Prov_store.t;
  n_support : Support.t;
      (** support graph for incremental deletion; maintained
          unconditionally, unlike provenance capture *)
  n_base : unit Tuple.Table.t;
      (** locally installed base facts (external support) *)
  n_recv_from : string list ref Tuple.Table.t;
      (** senders currently standing behind each received tuple *)
  n_sent_cache : (string, unit) Hashtbl.t Tuple.Addr_table.t;
      (** dedup of identical sends, keyed (dest, tuple) with the
          provenance variant one level down, so a retraction notice
          can drop every variant of one (dest, tuple) in O(1) *)
  mutable n_free_at : float;
      (** virtual time until which this node's CPU is busy *)
  n_parked : work_item Queue.t;
      (** receive queue: work waiting for the CPU, in arrival order *)
  mutable n_wake_at : float;
      (** time of the armed wake event, or [-1.0] when none *)
}

type t

val create :
  ?directory:Sendlog.Principal.directory ->
  rng:Crypto.Rng.t ->
  cfg:Config.t ->
  topo:Net.Topology.t ->
  program:Ndlog.Ast.program ->
  unit ->
  t
(** Build a runtime: one node (database, provenance store, principal)
    per topology node.  No event is scheduled for the fail-stop
    schedule in [cfg.fault]: each {!run} or {!advance} sets the
    [sim.crashed_nodes] gauge from it at the time reached. *)

val node : t -> string -> node
(** Raises [Invalid_argument] for an unknown address. *)

val nodes : t -> node list

(** {1 Driving a run} *)

val install_fact : t -> at:string -> Tuple.t -> unit
val install_program_facts : t -> unit
val install_links : t -> unit

val retract_fact : t -> at:string -> Tuple.t -> unit
(** Retract a base fact previously installed at a node (it arrives
    now and waits for the node's CPU, like {!install_fact} and every
    message): withdraws its external support and runs a DRed-style
    incremental deletion pass — dependents whose every derivation
    flowed through the lost tuple are deleted (recursively), anything
    with a surviving alternative derivation or other external support
    (another sender, a local installation) is re-derived in place,
    aggregates are recomputed, and peers that received now-dead
    tuples get authenticated retraction notices that trigger the same
    pass remotely.  Dead tuples' provenance is retired to the offline
    store; surviving tuples lose only the invalidated alternatives. *)

(** {1 Link churn}

    The physical topology stays fixed (delivery latencies, the flap
    process's link population); churn retracts and reinstalls the
    {e link facts} the program routes over, which is what the fixpoint
    depends on.  The from-scratch equivalent of a down link is a fresh
    runtime over [Net.Topology.remove_link]-mutated topology. *)

val link_down : t -> src:string -> dst:string -> unit
(** Retract the link fact {!install_links} installed for a physical
    link.  Raises [Invalid_argument] if the physical link does not
    exist. *)

val link_up : t -> src:string -> dst:string -> unit
(** Reinstall the link fact for a physical link. *)

val schedule_flaps : t -> rate:float -> horizon:float -> unit -> Net.Fault.flap list
(** Schedule a seed-reproducible Poisson link-flap process over every
    physical link (see {!Net.Fault.flap_schedule}; the seed is
    [cfg.fault.seed]).  Flap times are relative to the current virtual
    time, so the usual sequence is: {!run} to the static fixpoint,
    [schedule_flaps], {!run} again to re-converge.  Returns the
    schedule. *)

type run_result = {
  wall_seconds : float;
      (** real CPU time: the paper's completion time *)
  sim_seconds : float;  (** simulated network time at quiescence *)
  events : int;
}

val run : ?until:float -> t -> run_result
(** Run to distributed fixpoint (event-queue quiescence) or until the
    virtual-time horizon.  Every node's work runs as described at
    {!node}: a handler authenticates and dedups its queued messages,
    evaluates one combined fixpoint (retractions act as barriers), and
    commits at once: sequence numbers, stats, and the departure of its
    messages when its modelled duration is over.  With one shard the
    calling domain drains the whole horizon; with
    [Config.shards <> 1] the shards drain concurrently on worker
    domains, through conservative lookahead windows. *)

val shutdown : t -> unit
(** Join a sharded runtime's worker domains (no-op with one shard)
    and close the offline provenance log's file handles.  OCaml caps
    live domains, so call this when discarding a runtime in a
    long-lived process (the bench harness and tests do). *)

val prov_log : t -> Store.Prov_log.t option
(** The persisted offline provenance log, when the run was configured
    with [Config.prov_log].  Every node's retire path writes through
    to it, and released data messages record 1/K-sampled flows and
    per-(node, epoch) Bloom digests (paper §5.2). *)

val sync_prov_log : t -> unit
(** Checkpoint still-live tuples' provenance into the offline log as
    live ('L') records and flush pending digests, so offline queries
    after this process exits cover live tuples too.  No-op without a
    configured log. *)

val advance : t -> seconds:float -> unit
(** Advance simulated time by exactly [seconds] (events scheduled
    beyond the horizon stay queued).  At the horizon each shard evicts
    its nodes' expired soft state, in deterministic node order: each
    expired tuple's provenance is retired to the offline log (when one
    is configured), and the node's next handler incrementally retracts
    everything derived from it, reinstating re-derivable tuples.  That
    handler runs at the horizon when the node is idle, and otherwise
    when its CPU frees, in the next {!run} or [advance]; so does any
    retraction fallout addressed to other nodes. *)

(** {1 Queries} *)

val query : t -> at:string -> string -> Tuple.t list
val query_all : t -> string -> (string * Tuple.t) list

val find_tuple : t -> at:string -> ident:string -> Tuple.t option
(** Resolve a tuple identity string (e.g. ["link(a,b,1)"]) to the
    live tuple at a node, for identity-keyed queries against the live
    backend. *)

val provenance_of : t -> at:string -> Tuple.t -> Provenance.Prov_expr.t
val condensed_annotation : t -> at:string -> Tuple.t -> string

(** {1 Accessors} *)

val stats : t -> Net.Stats.t

val tuples_retracted : t -> int
(** Monotone count of tuples deleted by retraction passes across all
    nodes (soft-state expiry, {!retract_fact}, link churn, remote
    retraction notices). *)

val dropped_forged : t -> int
val config : t -> Config.t
val topology : t -> Net.Topology.t

val sim : t -> Net.Event_sim.t
(** The default shard's event queue, for tests and tools that schedule
    probe events directly.  Under [Config.shards <> 1] each shard has
    its own queue and clock; use {!now} for the virtual time. *)

val now : t -> float
(** Current virtual time: the calling shard's clock inside the engine,
    the maximum over shard clocks from outside (with one shard, simply
    the simulator clock). *)

val shard_count : t -> int
(** Number of event-simulator shards this runtime was created with. *)

val directory : t -> Sendlog.Principal.directory

val is_node_down : t -> string -> bool
(** Whether the node is fail-stopped at the current virtual time; the
    basis for traceback's graceful degradation. *)

val replace_principal : t -> at:string -> Sendlog.Principal.t -> unit
(** Swap a node's signing identity (adversary simulation in tests: a
    rogue principal whose signatures the directory can't verify). *)

(** {1 Telemetry} *)

val event_log : t -> Obs.Events.log
val tracer : t -> Obs.Trace.t option

val enable_tracing : t -> Obs.Trace.t
(** Attach a tracer whose primary clock is the simulator's virtual
    clock (wall-clock durations are recorded alongside). *)

val set_message_tap : t -> (float -> Net.Wire.message -> unit) -> unit
(** Audit tap: sees every outgoing wire message (Accountability). *)

val total_storage : t -> Prov_store.storage
(** Total provenance storage across nodes, for the ablations. *)
