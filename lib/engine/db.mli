(** Per-node tuple store.

    Each relation is a set of tuples with per-tuple soft-state
    metadata (creation time, expiry, asserting principals).  Relations
    can carry a *replace policy* (from [#key] directives or MIN/MAX
    aggregate heads): tuples are keyed on a column subset and an
    insert for an existing key either replaces the old tuple or is
    rejected, depending on the preference order.  This implements P2's
    materialized-table semantics and the replace-based convergence of
    Best-Path (see DESIGN.md).

    The store's internals (per-relation tables, the by-key map, the
    lazily built secondary indexes) are hidden: every mutation must go
    through {!insert}/{!remove}/{!evict_expired} so the indexes stay
    consistent with the tuple sets.

    Invariant the fault/reliable layer relies on: {!insert} is
    idempotent for an already-present tuple (it reports [Refreshed],
    which {!result_is_new} excludes from the semi-naive frontier), so
    a duplicate message delivered by a faulty network cannot re-derive
    work even without receiver-side dedup. *)

type prefer =
  | P_last  (** last write wins *)
  | P_min of int  (** keep the tuple with the smallest value at index *)
  | P_max of int

type policy =
  | Set  (** plain set semantics *)
  | Replace of { key : int list; prefer : prefer }

type t

val create : ?indexing:bool -> unit -> t
(** [~indexing:false] makes {!probe} scan whole relations; tests use
    such a store as the oracle for the indexed one. *)

val set_policy : t -> string -> policy -> unit
val policy : t -> string -> policy

val set_ttl : t -> string -> float -> unit
(** Set the relation's soft-state lifetime.  This affects only tuples
    inserted {e after} the call — tuples already live keep their
    recorded expiry (usually [None] when no TTL was set at insert
    time).  Re-deriving (re-inserting) a live tuple extends its
    lifetime to [now + ttl], P2's refresh semantics: a tuple stays
    alive as long as it keeps being derived. *)

type insert_result =
  | Added
  | Refreshed  (** already present; soft-state lifetime extended *)
  | New_asserter  (** already present, but now asserted by a new principal *)
  | Replaced of Tuple.t
      (** keyed relation: the returned old tuple was evicted *)
  | Rejected  (** keyed relation: existing tuple preferred *)

val result_is_new : insert_result -> bool
(** Results that introduce new information and must join the
    semi-naive frontier. *)

val insert : t -> now:float -> ?asserted_by:Value.t -> Tuple.t -> insert_result
val remove : t -> Tuple.t -> unit
val mem : t -> Tuple.t -> bool

(** The live tuple currently holding this tuple's keyed group (the
    group's replace-policy winner): [None] for [Set] relations and for
    groups with no live member. *)
val incumbent_of : t -> Tuple.t -> Tuple.t option
val asserters_of : t -> Tuple.t -> Value.t list
val iter_rel : t -> string -> (Tuple.t -> unit) -> unit
val tuples_of : t -> string -> Tuple.t list

val probe : t -> string -> cols:int list -> key:Value.t list -> Tuple.t list
(** Enumerate the tuples whose projection on [cols] equals [key],
    through the secondary hash index on [cols] (built lazily on first
    probe, maintained incrementally thereafter).  With indexing
    disabled, or an empty column set, degrades to a full scan.  The
    result is a superset filter: callers still run the full literal
    match against each returned tuple. *)

val cardinal : t -> string -> int
val relation_names : t -> string list

val evict_expired : t -> now:float -> Tuple.t list
(** Remove all tuples whose soft-state lifetime has passed; returns
    the evicted tuples so the caller can move their provenance to an
    offline store (Section 4.2 of the paper). *)

val configure_from_program : t -> Ndlog.Ast.program -> unit
(** Apply [#key] / [#ttl] directives from a parsed program, and derive
    replace policies for MIN/MAX aggregate heads (group-by columns
    form the key; see DESIGN.md "Aggregates"). *)
