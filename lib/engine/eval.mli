(** Semi-naive bottom-up evaluation of localized NDlog / SeNDlog rules
    at one node.

    The evaluator is provenance-agnostic: every successful derivation
    is reported through the [on_derive] callback, and the caller
    ([Core.Runtime]) decides how to record provenance, sign tuples,
    and so on.  Derived tuples whose head location is not the local
    address are returned as {!emit}s for the network layer instead of
    being inserted.

    Invariant the fault/reliable layer relies on: the fixpoint is
    insensitive to the arrival order and multiplicity of frontier
    tuples — a re-inserted tuple reports [Refreshed] and never
    re-enters the frontier — so deliveries reordered or duplicated by
    a faulty network converge to the same database as a fault-free
    run. *)

(** One derivation step: [d_head] was produced by rule [d_rule] from
    the positive body matches [d_body]; each body entry carries the
    asserting principal consumed by a [says] literal, if any. *)
type derivation = {
  d_rule : string;
  d_head : Tuple.t;
  d_body : (Tuple.t * Value.t option) list;
}

(** A tuple addressed to another node. *)
type emit = {
  e_dest : string;
  e_tuple : Tuple.t;
  e_deriv : derivation;
}

type frontier_item = {
  f_tuple : Tuple.t;
  f_asserter : Value.t option;
}

exception Rule_error of string

val run_fixpoint :
  Db.t ->
  now:float ->
  rules:Ndlog.Ast.rule list ->
  local:string option ->
  ?self_principal:Value.t ->
  ?support:Support.t ->
  ?on_replace:(Tuple.t -> unit) ->
  ?seeded:frontier_item list ->
  pending:frontier_item list ->
  on_derive:(derivation -> unit) ->
  unit ->
  emit list
(** Insert [pending] and apply [rules] to a local fixpoint.

    - [local]: this node's address; derived tuples addressed elsewhere
      become {!emit}s.  [None] runs single-site (everything local).
    - [self_principal]: the asserting principal recorded for locally
      derived tuples (SeNDlog context; [None] in plain NDlog).
    - [support]: when given, every derivation found (including heads a
      replace policy rejects and heads emitted elsewhere) is recorded
      in the support graph for later incremental deletion.
    - [on_replace] fires with the evicted incumbent whenever a keyed
      insert replaces a tuple, so the caller can retire its
      provenance.
    - [seeded]: frontier items whose tuples the caller has already
      inserted (used by {!retract}); they join the first round's delta
      directly.
    - [on_derive] fires exactly once per distinct derivation whose
      head is inserted locally, after the insert and only when the
      relation's replace policy accepts it (a beaten candidate is
      reported if {!retract} later reinstates it), and before
      [on_replace] hears of the incumbent it displaced.
      Re-derivations of existing tuples are reported too, so the
      caller can accumulate alternative provenance (Plus in the
      semiring); heads emitted elsewhere are returned as {!emit}s. *)

(** Outcome of a {!retract} pass. *)
type retract_result = {
  rr_deleted : Tuple.t list;
      (** previously-live local tuples now dead — retire their
          provenance to the offline store *)
  rr_remote_dead : (string * Tuple.t) list;
      (** emitted heads that lost every local derivation — the
          destination node should be told to retract them *)
  rr_invalidated : derivation list;
      (** support records removed because a body tuple died — the
          matching provenance alternatives can be trimmed *)
  rr_emits : emit list;
      (** tuples (re-)derived for other nodes during propagation *)
}

val retract :
  Db.t ->
  support:Support.t ->
  now:float ->
  rules:Ndlog.Ast.rule list ->
  local:string option ->
  ?self_principal:Value.t ->
  ?on_replace:(Tuple.t -> unit) ->
  lost:Tuple.t list ->
  external_support:(Tuple.t -> Value.t option list) ->
  on_derive:(derivation -> unit) ->
  unit ->
  retract_result
(** Delete-and-rederive (DRed) incremental maintenance: over-delete
    the dependents of [lost] through the recorded support graph, then
    reinstate every tuple that still has external support (base fact,
    remote sender — [external_support] returns its asserters, [[]]
    meaning none) or a recorded derivation whose body is live again
    (each body a [says] literal consumed still asserted by the
    principal it consumed), under the asserters that still stand,
    recompute COUNT/SUM heads, and run a semi-naive fixpoint over
    whatever changed.  [on_derive] and [on_replace] fire as in
    {!run_fixpoint}; a reinstated beaten candidate reports each of
    its surviving derivations.  After the pass the database equals the fixpoint
    a from-scratch run would reach without the [lost] tuples (see
    DESIGN.md §10 for the negation caveat). *)

val run_single_site : ?on_derive:(derivation -> unit) -> Ndlog.Ast.program -> Db.t
(** Run a whole program (facts + rules) to fixpoint in one database,
    ignoring distribution.  Raises {!Rule_error} if any derived tuple
    is addressed to another node. *)
