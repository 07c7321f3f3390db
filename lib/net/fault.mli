(** Deterministic fault injection for the simulated network.

    A {!model} describes how links misbehave (loss, duplication,
    reordering jitter) and which nodes fail-stop and when.  Every
    per-message verdict is computed by hashing (model seed, src, dst,
    message identity, attempt) into a private {!Crypto.Rng}; no shared
    RNG stream is consumed, so verdicts are independent of event
    interleaving and a faulty run is reproducible from its seed even
    though handler durations include measured wall CPU.  Keying on
    message {e identity} (content) rather than the per-channel
    sequence number makes verdicts independent of enqueue order, so a
    [--fault-seed] run reproduces bit-for-bit across sharded-simulator
    configurations. *)

type spec = {
  drop : float;  (** P(message lost in transit), per attempt *)
  duplicate : float;  (** P(one extra copy delivered) *)
  reorder : float;  (** P(a copy is delayed by extra jitter) *)
  jitter : float;  (** max extra delay in seconds, drawn uniformly *)
}

val uniform :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?jitter:float ->
  unit ->
  spec
(** Build a spec, validating that probabilities lie in [0,1] and
    jitter is non-negative.  Raises [Invalid_argument] otherwise. *)

type crash = {
  cr_node : string;
  cr_at : float;  (** virtual time the node goes down *)
  cr_restart : float option;  (** back up at this time; [None] = forever *)
}
(** Fail-stop with state retained: during [cr_at, cr_restart) the node
    neither receives nor processes messages, but its database and
    provenance store survive, so the fixpoint resumes from
    retransmissions after restart. *)

type model = {
  seed : int;
  default_spec : spec;  (** every link's behaviour *)
  crashes : crash list;
}

val ideal : model
(** No faults at all; the default in {!Core.Config}. *)

val make :
  ?seed:int ->
  ?default_spec:spec ->
  ?crashes:crash list ->
  unit ->
  model
(** Raises [Invalid_argument] on negative crash times or restarts that
    do not come after their crash. *)

val with_seed : model -> int -> model
val is_ideal : model -> bool

val decide :
  model -> src:string -> dst:string -> ident:string -> attempt:int -> float list
(** The network's verdict on one transmission attempt: one extra-delay
    value per copy actually delivered.  [[]] means dropped; two
    elements mean duplicated.  Deterministic in its arguments; [ident]
    is the message's content identity (kind-prefixed tuple identity),
    so identical content retransmitted on the same attempt number gets
    the same verdict regardless of enqueue order. *)

val is_down : model -> now:float -> string -> bool
(** Whether [node] is crashed at virtual time [now]. *)

val restart_after : model -> now:float -> string -> float option
(** When a node that is down at [now] comes back up: [Some t] with
    [t > now], or [None] if the node is up already or down forever. *)

type flap = {
  fl_src : string;
  fl_dst : string;
  fl_at : float;  (** virtual time of the transition *)
  fl_down : bool;  (** [true] = link goes down, [false] = comes back up *)
}
(** One link-state transition of a Poisson flap process. *)

val flap_schedule :
  model ->
  links:(string * string) list ->
  rate:float ->
  ?mean_downtime:float ->
  horizon:float ->
  unit ->
  flap list
(** Sample a seed-reproducible Poisson flap process for each directed
    link: up-times are exponential with mean [1/rate] flaps per
    second, down-times exponential with mean [mean_downtime]
    (default 0.5s).  Each link draws from a private RNG seeded by
    SHA-256 of (model seed, src, dst) — the same idiom as {!decide} —
    so a link's history is independent of listing order and of every
    other link.  Any link still down at [horizon] gets a final up
    transition there, so a flap run always converges back to the
    static topology.  Events are sorted by (time, src, dst).
    Raises [Invalid_argument] on a negative rate or non-positive mean
    downtime; a zero rate or non-positive horizon yields []. *)

val crash_of_string : string -> (crash, string) result
(** Parse ["node@at"] (down forever) or ["node@at+duration"]. *)

val crash_to_string : crash -> string

val describe : model -> string
(** One-line human-readable summary (["ideal"] when {!is_ideal}). *)
