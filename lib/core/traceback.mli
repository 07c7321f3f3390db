(** Distributed provenance queries (Section 4.1) and their offline
    counterpart over the persisted provenance log.

    With {e distributed} provenance each node only stores derivation
    pointers, and a traceback reconstructs the full derivation tree on
    demand by recursively querying the nodes along the chain — the
    paper's IP-traceback analogy.  The query itself costs messages and
    bytes, the other side of the local-vs-distributed trade-off. *)

open Engine

type cost = {
  mutable remote_queries : int;
  mutable query_bytes : int;  (** request + response bytes *)
  mutable nodes_visited : int;
}

type result = {
  tree : Provenance.Derivation.t;
  expr : Provenance.Prov_expr.t;
  cost : cost;
  partial : bool;
      (** the tree contains [Unreachable] stubs: a node on the chain
          was fail-stopped when queried (live), or the log had no
          record for it (offline) *)
}

val query : Runtime.t -> at:string -> Tuple.t -> result
(** Reconstruct the derivation tree of a live tuple as stored at
    [at], following remote pointers across nodes.  Honors the
    runtime's configured granularity: under AS-level, walks crossing
    out of the querying node's domain stop at the boundary with a
    single leaf naming the origin domain. *)

val offline_query :
  Store.Prov_log.t ->
  ?granularity:Config.granularity ->
  ?before:float ->
  at:string ->
  ident:string ->
  unit ->
  result
(** The same walk over the persisted provenance log: record selection
    replaces node lookup (latest record for each (node, identity),
    bounded to log records stamped at or before [before] when given),
    and a missing record plays the role of a crashed node.  Under
    [As_level], the walk stops where a record's stored domain differs
    from the root record's.  For a tuple that is still live, the
    resulting tree's [Prov_expr.canonical_string] is byte-identical
    to {!query}'s: both run one walk, over different record
    sources. *)

val offline_nodes : Store.Prov_log.t -> ident:string -> string list
(** Nodes holding a log record for the identity, oldest occurrence
    first — roots for offline queries that don't name a node. *)

val offline_findings :
  Store.Prov_log.t ->
  granularity:Config.granularity ->
  before:float option ->
  string list ->
  (string * string * result) list
(** {!offline_query} at every node of {!offline_nodes}, for each
    identity in turn, over one memo of log lookups: each identity is
    read and decoded once however many findings reach it. *)

(** {1 Latency profile} *)

val latency_tree : result -> string
(** The derivation tree rendered with per-node completion times; the
    [a_created] stamps are virtual-clock times, so the tree doubles as
    a profile of when each step landed. *)

val completion_time : result -> float
val critical_path : result -> Provenance.Derivation.t list

(** {1 Diagnostics (Section 3)} *)

val purge_suspect : Runtime.t -> at:string -> suspect:string -> Tuple.t list
(** Delete all tuples at [at] whose provenance involves [suspect];
    returns the deleted tuples. *)
