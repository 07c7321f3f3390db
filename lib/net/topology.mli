(** Topology generation for the simulated network.

    The paper's evaluation (Section 6) inserts "link tables for N nodes
    with average outdegree of three" and varies N from 10 to 100; link
    costs are not specified, so we draw them uniformly from [1, 10]
    (recorded in EXPERIMENTS.md).  All generation flows from a seeded
    [Crypto.Rng], so topologies are reproducible.

    The records are exposed read-only by convention (tests and the
    workloads iterate [links]/[nodes] directly), but every constructor
    validates that no two links share the same (src, dst) pair: the
    fault layer keys per-link specs and the reliable-delivery layer
    keys channels on that pair, so a duplicate directed link would make
    {!latency_between} ambiguous.  Building a [t] literal by hand
    bypasses that check — use the constructors. *)

type link = {
  l_src : string;
  l_dst : string;
  l_cost : int;
  l_latency : float;  (** simulated propagation delay, seconds *)
}

type t = {
  nodes : string list;
  links : link list;
  as_of : (string, int) Hashtbl.t;
      (** AS assignment, for Section 5 granularity *)
}

val validated :
  nodes:string list -> links:link list -> as_of:(string, int) Hashtbl.t -> t
(** The checked constructor every generator funnels through.  Raises
    [Invalid_argument] when two links share the same (src, dst). *)

val as_of : t -> string -> int
(** Autonomous system of a node (0 when unassigned). *)

val random :
  Crypto.Rng.t ->
  n:int ->
  ?outdegree:int ->
  ?max_cost:int ->
  ?min_latency:float ->
  ?max_latency:float ->
  unit ->
  t
(** Random strongly connected topology with the paper's parameters: a
    spanning ring plus random extra links up to the average
    [outdegree]. *)

val paper_example : unit -> t
(** The three-node example of Section 4 / Figure 1: links a->b, a->c,
    b->c, unit costs. *)

val line : n:int -> ?cost:int -> unit -> t
val ring : n:int -> ?cost:int -> unit -> t
val star : n:int -> ?cost:int -> unit -> t

val link_facts : ?with_cost:bool -> t -> Engine.Tuple.t list
(** Links as [link(@src, dst[, cost])] base tuples for a program. *)

val find_link : t -> src:string -> dst:string -> link option

val remove_link : t -> src:string -> dst:string -> t
(** Functional removal of one directed link; identity when absent. *)

val add_link : t -> link -> t
(** Functional addition of one directed link.  Raises
    [Invalid_argument] on a duplicate (src, dst) pair. *)

val latency_between : t -> src:string -> dst:string -> float
(** Latency of a *directed physical link*.  Raises [Invalid_argument]
    with a descriptive message on a missing link, so callers can't
    silently confuse overlay reachability with physical adjacency. *)

val overlay_latency : float
(** Fixed delay assumed for messages between non-adjacent nodes
    (overlay hops, traceback queries). *)

val delivery_latency : t -> src:string -> dst:string -> float
(** Delivery delay for the runtime's message path: the link latency
    when the nodes are physically adjacent, {!overlay_latency}
    otherwise. *)

val avg_outdegree : t -> float
