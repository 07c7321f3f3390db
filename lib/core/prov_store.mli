(** Per-node provenance storage, covering the taxonomy of Section 4.

    {e Local/online}: each live tuple maps to its provenance
    expression.  {e Distributed/online}: each live tuple maps to
    derivation records — (rule, body tuples, where each body tuple
    lives) — reconstructed on demand by {!Traceback}.  {e Offline}:
    when a tuple expires or is replaced its provenance moves to the
    in-memory offline list and, when a retire sink is installed, is
    written through to the persisted log ([Store.Prov_log]).

    Storage is per-alternative: each Plus branch (base assertion,
    local derivation, shipped provenance) keeps its own expression, so
    incremental deletion can remove exactly the alternatives a
    retraction invalidated and rebuild the combined expression from
    the survivors in original arrival order. *)

open Engine

(** Where a body tuple used in a derivation lives. *)
type origin =
  | O_local
  | O_remote of string  (** address of the node it came from *)

type deriv_record = {
  dr_rule : string;
  dr_body : (Tuple.t * origin * string option) list;
      (** tuple, where it lives, asserting principal if any *)
  dr_at : float;  (** creation timestamp (soft-state annotation, §4) *)
  dr_signature : string option;  (** authenticated provenance (§4.3) *)
  dr_signer : string option;
}

(** A retired (or checkpointed) tuple's provenance, as handed to the
    offline list and the retire sink. *)
type offline_record = {
  off_tuple : Tuple.t;
  off_expr : Provenance.Prov_expr.t;
  off_derivs : deriv_record list;
  off_received_from : string list;
  off_expired_at : float;
}

type t

val create : offline_enabled:bool -> unit -> t

val set_retire_sink : t -> (offline_record -> unit) option -> unit
(** Install (or clear) the write-through sink fired on every
    {!retire}, independent of the in-memory offline list.  The sink
    runs on whichever domain retires the tuple, so it must be
    thread-safe (the persisted log is). *)

(** {1 Recording} *)

val record_base : t -> Tuple.t -> key:string -> unit
val record_derivation :
  t -> Tuple.t -> record:deriv_record -> combined:Provenance.Prov_expr.t -> bool
(** Record a local derivation; [combined] is the Times-expression
    over the body provenance.  Returns [true] when new (duplicates
    are deduplicated by rule + body identities). *)

val record_received :
  t -> Tuple.t -> from:string -> expr:Provenance.Prov_expr.t -> unit
(** Plus-combine provenance shipped with a received tuple. *)

(** {1 Lookup} *)

val expr_of : t -> Tuple.t -> Provenance.Prov_expr.t
(** Zero for unknown tuples. *)

val derivs_of : t -> Tuple.t -> deriv_record list
(** Local derivation alternatives, newest first. *)

val received_from : t -> Tuple.t -> string list
(** Senders currently standing behind the tuple, newest first. *)

(** {1 Incremental deletion} *)

val remove_derivation :
  t -> Tuple.t -> rule:string -> body:(Tuple.t * string option) list -> unit
(** Trim one invalidated derivation alternative and rebuild the
    cached expression from the survivors. *)

val refresh_derivations : t -> expr_of:(Tuple.t -> Provenance.Prov_expr.t) -> bool
(** Recompute local-derivation alternatives from the {e current}
    provenance of their body tuples (derivations hold frozen copies
    that go stale when a body loses or gains an alternative).  Bodies
    reading Zero keep their recorded expression.  Returns [true] when
    anything changed; callers sweep to a fixpoint. *)

val refresh_tuple : t -> Tuple.t -> expr_of:(Tuple.t -> Provenance.Prov_expr.t) -> bool
(** {!refresh_derivations} for one tuple's entry; [false] for an
    unknown tuple. *)

val remove_received : t -> Tuple.t -> from:string -> unit
(** Forget everything a sender contributed (the sender retracted). *)

(** {1 Offline provenance (Section 4.2)} *)

val retire : t -> Tuple.t -> now:float -> unit
(** Move a tuple's provenance out of the live table: appended to the
    in-memory offline list when offline capture is enabled, and handed
    to the retire sink when one is installed. *)

val age_offline :
  t -> now:float -> max_age:float -> ?persist:(Tuple.t -> bool) -> unit -> int
(** Drop offline records older than [max_age] unless [persist] marks
    them; returns the number dropped. *)

val offline_records : t -> offline_record list
val offline_lookup : t -> Tuple.t -> offline_record option

val live_records : t -> now:float -> offline_record list
(** Snapshot the live entries as offline-shaped records ([now] as the
    timestamp); the runtime persists these as 'L' checkpoint frames so
    offline traceback covers still-live tuples across a restart. *)

(** {1 Storage accounting (the ablations)} *)

type storage = {
  st_online_entries : int;
  st_online_expr_bytes : int;
  st_online_pointer_bytes : int;
  st_offline_records : int;
  st_offline_bytes : int;
}

val storage : t -> storage
