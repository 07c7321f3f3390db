(** Derivation trees with the paper's annotations (Figures 1 and 2).

    A node is either a base tuple (a leaf) or the result of applying a
    rule (an oval in the figures) to child subtrees; [Union] combines
    alternative derivations of the same tuple.  Traceback (both the
    live walk and the offline walk over the persisted log) produces
    these trees, showing each (location, tuple) subtree in full once
    and as a [Shared] reference wherever the walk reaches it again;
    {!to_expr} maps them onto provenance expressions. *)

type annotation = {
  a_location : string;  (** where the step executed: "@a" in Figure 1 *)
  a_created : float;
  a_ttl : float option;
  a_says : string option;  (** asserting principal, Figure 2 *)
  a_signature : string option;  (** raw signature bytes, Section 4.3 *)
}

val annot :
  ?created:float ->
  ?ttl:float ->
  ?says:string ->
  ?signature:string ->
  string ->
  annotation
(** [annot location] with [created] defaulting to 0. *)

type t =
  | Leaf of { tuple : string; ann : annotation }
  | Rule of { rule : string; tuple : string; ann : annotation; children : t list }
  | Union of { tuple : string; location : string; alternatives : t list }
  | Unreachable of { tuple : string; location : string }
      (** traceback could not reach [location] (crashed node, missing
          offline record): the subtree rooted here is unknown (Section
          4.1's graceful degradation) *)
  | Shared of { tuple : string; location : string }
      (** another visit to the subtree of [tuple] held at [location]:
          one shown in full earlier in the same tree, or an enclosing
          subtree not yet finished (a cycle in the records) *)

val location_of : t -> string
(** Where the subtree's root is held; with the root's tuple, the key a
    [Shared] reference names. *)

val leaves : t -> string list
(** Base tuples at the leaves; an [Unreachable] stub contributes none
    (its subtree is unknown, not empty), nor does a [Shared] reference
    (its subtree lists them where it appears in full). *)

val depth : t -> int

val unreachable_leaves : t -> string list
(** Locations of the [Unreachable] stubs. *)

val to_expr : t -> Prov_expr.t
(** The provenance expression of the tree: leaves are base keys (the
    asserting principal when present, Figure 2), rules multiply,
    unions add, unreachable subtrees map to zero.  A [Shared]
    reference contributes the expression of the subtree it names,
    which appears in full earlier in the tree; a reference to an
    enclosing subtree (a cycle) contributes zero. *)

val to_expr_by_tuple : t -> Prov_expr.t
(** Like {!to_expr} but always keyed by base tuple identity, and a
    [Shared] reference that does not resolve within the tree names its
    tuple: the size of a subtree that points at parts its reader
    already holds. *)

val locations : t -> string list
(** Every location that took part, for AS-granularity aggregation. *)

val fully_attributed : t -> bool
(** Structural completeness of an authenticated tree: every node
    carries a [says] principal and no subtree is unreachable (a
    [Shared] reference is checked where its subtree appears). *)

val to_string : t -> string
(** ASCII rendering in the spirit of Figures 1–2. *)

(** {1 Latency profile}

    When [a_created] stamps carry the virtual clock (as runtime
    traceback trees do), the tree doubles as a latency profile: a
    rule completes at the latest of its stamp and its children, a
    union at its earliest alternative.  Unreachable stubs and [Shared]
    references complete at 0: their timing is unknown or counted where
    the subtree appears in full. *)

val completion : t -> float
val critical_path : t -> t list
(** The chain of nodes that determined the root's completion time. *)

val to_latency_string : t -> string
(** Rendering with per-node completion times; critical-path nodes are
    marked with [*]. *)

(** {1 Paper examples} *)

val figure1 : unit -> t
val figure2 : unit -> t
