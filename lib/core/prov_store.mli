(** Per-node provenance storage, covering the taxonomy of Section 4.

    {e Local/online}: each live tuple's provenance expression is
    available at the node, evaluated from its records by {!expr_of}.
    {e Distributed/online}: each live tuple maps to derivation records
    — (rule, body tuples) — and to the senders that shipped it,
    reconstructed on demand by {!Traceback}.  {e Offline}: when a
    tuple expires, is replaced or is retracted its provenance leaves
    the live table and, when the store was created with a log, is
    written through to the persisted log ([Store.Prov_log]), the only
    offline store.

    An entry has one life cycle: the runtime creates it when its tuple
    goes live at the node or ships from it, and it leaves only through
    {!retire}.  A prune that would remove an entry's last alternative
    ({!remove_derivation}, {!remove_received}) retires the entry with
    that alternative still in it, so the log names the derivation or
    sender that last stood behind the tuple.  (Shipped provenance is
    recorded as its message is accepted, before the insert; none of
    [Ndlog.Programs] sends tuples into a keyed relation, so there a
    received tuple is never rejected.)

    Derivations are held as the log's own [Store.Prov_log.deriv]
    records, and retirements and checkpoints are built as the log's
    [Store.Prov_log.record], so the live store and the log hand
    traceback one record type and nothing converts between them.

    The records are the only stored form of provenance: an entry is a
    list of Plus alternatives, each keeping only what the records
    cannot rebuild (a base its key, a received copy the expression its
    sender shipped, a local derivation its record).  Incremental
    deletion removes exactly the alternatives a retraction
    invalidated, and no expression is cached to go stale. *)

open Engine

type t

val create :
  node:string -> domain:string -> prov:Config.prov_mode -> log:Store.Prov_log.t option -> t
(** The store of the node at address [node], whose AS-domain base key
    is [domain] (e.g. ["as3"]); both are stamped on every record it
    hands the log.  [prov] is the run's provenance mode: under
    [Prov_distributed] a derivation is a pointer only and {!expr_of}
    gives it no expression.  Every {!retire} appends to [log], when
    given, from whichever domain retires the tuple (the log is
    thread-safe).  Under [Prov_off] the store records senders only
    ({!record_received} with a zero expression): it ignores [log], and
    {!live_records} and {!storage} read empty. *)

(** {1 Recording} *)

val record_base : t -> Tuple.t -> key:string -> unit
val record_derivation : t -> Tuple.t -> record:Store.Prov_log.deriv -> unit
(** Record a local derivation; a duplicate (same rule, body tuples and
    [says] principals) adds nothing. *)

val record_received :
  t -> Tuple.t -> from:string -> expr:Provenance.Prov_expr.t -> unit
(** Record the expression a sender shipped with a received tuple as
    one more alternative (unless that sender already shipped an equal
    expression).  These alternatives are the node's one record of a
    received tuple's senders, kept in every provenance mode. *)

(** {1 Lookup} *)

val mem : t -> Tuple.t -> bool
(** Whether the tuple has an entry: some alternative is recorded. *)

val expr_of : t -> Tuple.t -> Provenance.Prov_expr.t
(** The tuple's expression, evaluated from its records: the Plus of
    its alternatives, oldest first.  A base gives its key, a received
    copy the expression its sender shipped, and a local derivation
    the Times of its bodies' [expr_of] at this node.  Zero for
    unknown tuples; a derivation contributes zero under
    [Prov_distributed], and so does a body already being evaluated
    higher up in the same call (a cycle in the records). *)

val derivs_of : t -> Tuple.t -> Store.Prov_log.deriv list
(** Local derivation alternatives, newest first. *)

val received_from : t -> Tuple.t -> string list
(** Senders currently standing behind the tuple: the senders of its
    shipped-provenance alternatives, newest first by first arrival.
    Retraction reads them as the tuple's external support. *)

(** {1 Incremental deletion} *)

val remove_derivation :
  t -> Tuple.t -> now:float -> rule:string -> body:(Tuple.t * string option) list -> unit
(** Trim one invalidated derivation alternative.  When it is the
    entry's last alternative, the entry is retired at [now] with it
    instead (a shipped head whose derivation died, say). *)

val remove_received : t -> Tuple.t -> now:float -> from:string -> unit
(** Forget everything a sender contributed (the sender retracted).
    When that leaves no alternative, the entry is retired at [now]
    with the sender's alternatives still in it. *)

(** {1 Offline provenance (Section 4.2)} *)

val retire : t -> Tuple.t -> now:float -> unit
(** Move a tuple's provenance out of the live table, appending it to
    the log as a retirement record stamped [now] when the store has
    one.  The only way an entry leaves the table. *)

val live_records : t -> now:float -> Store.Prov_log.record list
(** Snapshot the live entries as checkpoint records ([r_live], [now]
    as the timestamp); the runtime persists these as 'L' frames so
    offline traceback covers still-live tuples across a restart. *)

(** {1 Storage accounting (the ablations)} *)

type storage = {
  st_online_entries : int;
  st_online_expr_bytes : int;
  st_online_pointer_bytes : int;
}

val storage : t -> storage
(** [st_online_expr_bytes] sums the uncondensed wire size of every
    entry's {!expr_of}; [st_online_pointer_bytes] the wire size of the
    body tuples of its derivation records. *)
