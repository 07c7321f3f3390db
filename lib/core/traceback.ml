(* Distributed provenance queries (Section 4.1) and their offline
   counterpart over the persisted provenance log (Section 4.2).

   With *distributed* provenance each node only stores derivation
   pointers ("it is derived from link(@a,b) which is available
   locally, and reachable(@b,c) which is stored at node b"), and a
   traceback reconstructs the full derivation tree on demand by
   recursively querying the nodes along the chain - the paper's IP
   traceback analogy.  The query itself costs messages and bytes,
   which is the other side of the local-vs-distributed trade-off
   (ablation A in DESIGN.md).

   Online versus offline is a storage choice, not a query choice: the
   walk is written once, over a record source that answers for a
   (node, tuple) with the tuple's derivations and senders, a domain
   cut, or nothing.  [query] reads the live stores and [offline_query]
   the log, so for a tuple that is still live the two trees agree by
   construction. *)

open Engine

type cost = {
  mutable remote_queries : int;
  mutable query_bytes : int; (* request + response bytes *)
  mutable nodes_visited : int;
}

type result = {
  tree : Provenance.Derivation.t;
  expr : Provenance.Prov_expr.t;
  cost : cost;
  partial : bool;
      (* true when the tree contains [Unreachable] stubs: some node on
         the derivation chain was fail-stopped when queried (live), or
         the log held no record for it (offline) *)
}

let c_partial = Obs.Metrics.counter Obs.Metrics.default "traceback.partial_results"

(* Approximate wire cost of one remote provenance query: a request
   naming the tuple plus a response carrying the remote subtree
   (sized as its expression encoding). *)
let request_bytes (tuple : Tuple.t) : int = 16 + Net.Wire.tuple_wire_size tuple

let response_bytes (e : Provenance.Prov_expr.t) : int = 16 + Provenance.Prov_expr.wire_size e

let max_depth = 64

(* What a record source knows about a tuple held at a node. *)
type source =
  | Cut of string
      (* the walk left the querying node's AS (Section 5.3): a single
         leaf names the origin domain, matching what [Runtime.send]
         shipped *)
  | Missing
      (* nothing can answer for it — a fail-stopped node, or no log
         record — so its subtree becomes an explicit [Unreachable]
         stub instead of hanging the traceback or raising *)
  | Found of Store.Prov_log.deriv list * string list
      (* local derivation alternatives and the senders behind the
         tuple, both newest first *)

let finish (cost : cost) (partial : bool) (tree : Provenance.Derivation.t) : result =
  if partial then Obs.Metrics.inc c_partial;
  { tree; expr = Provenance.Derivation.to_expr tree; cost; partial }

(* Reconstruct the derivation tree of [root] as held at [at],
   following remote pointers across nodes.  [lookup addr tuple ident]
   is the record source: the live stores or the persisted log.  A
   derivation's body is looked up at the node that used it, so a body
   that arrived over the network expands into every sender and every
   local derivation standing behind it there.  Each (node, tuple)
   subtree is walked once: a later visit becomes a [Shared] reference
   to it, which costs no remote query, and a visit to one still on
   the walk's own path (a cycle in the records), or past [max_depth]
   derivation steps, becomes a reference that contributes zero.
   Neither makes the tree partial. *)
let walk ~(lookup : string -> Tuple.t -> string -> source) ~(at : string)
    (root : Tuple.t) : result =
  let cost = { remote_queries = 0; query_bytes = 0; nodes_visited = 1 } in
  (* (node, tuple) -> [None] while on the walk's path, then the
     reference a later visit becomes *)
  let walked : Provenance.Derivation.t option Tuple.Addr_table.t =
    Tuple.Addr_table.create 64
  in
  let partial = ref false in
  let seen (addr : string) (tuple : Tuple.t) : Provenance.Derivation.t option =
    match Tuple.Addr_table.find_opt walked (addr, tuple) with
    | Some (Some r) -> Some r
    | Some None ->
      Some
        (Provenance.Derivation.Shared { tuple = Tuple.identity tuple; location = addr })
    | None -> None
  in
  let rec step (addr : string) (tuple : Tuple.t) (depth : int) : Provenance.Derivation.t =
    match seen addr tuple with
    | Some r -> r
    | None -> (
      let ident = Tuple.identity tuple in
      match lookup addr tuple ident with
      | Cut dom ->
        Provenance.Derivation.Leaf
          { tuple = ident; ann = Provenance.Derivation.annot ~says:dom dom }
      | Missing ->
        partial := true;
        Provenance.Derivation.Unreachable { tuple = ident; location = addr }
      | Found _ when depth > max_depth ->
        Provenance.Derivation.Shared { tuple = ident; location = addr }
      | Found (derivs, senders) ->
        let key = (addr, tuple) in
        Tuple.Addr_table.replace walked key None;
        let local_alternatives =
          List.map
            (fun (d : Store.Prov_log.deriv) ->
              let children =
                List.map
                  (fun (b : Store.Prov_log.body_item) -> step addr b.b_tuple (depth + 1))
                  d.d_body
              in
              Provenance.Derivation.Rule
                { rule = d.d_rule;
                  tuple = ident;
                  ann =
                    Provenance.Derivation.annot ~created:d.d_at ~says:addr
                      ?signature:d.d_signature addr;
                  children })
            derivs
        in
        (* Tuples that (also) arrived over the network are traced at
           their senders, yielding the remote alternatives of the
           union. *)
        let remote_alternatives =
          List.map (fun sender -> remote sender tuple depth) senders
        in
        let tree =
          match local_alternatives @ remote_alternatives with
          | [] ->
            (* A base tuple: leaf asserted by its home node. *)
            Provenance.Derivation.Leaf
              { tuple = ident; ann = Provenance.Derivation.annot ~says:addr addr }
          | [ one ] -> one
          | alternatives ->
            Provenance.Derivation.Union { tuple = ident; location = addr; alternatives }
        in
        Tuple.Addr_table.replace walked key
          (Some
             (Provenance.Derivation.Shared
                { tuple = ident; location = Provenance.Derivation.location_of tree }));
        tree)
  (* One remote provenance query: ask [sender] for [tuple]'s subtree,
     unless the walk already holds it.  The hop is not a derivation
     step, so it leaves [depth] as it is. *)
  and remote (sender : string) (tuple : Tuple.t) (depth : int) : Provenance.Derivation.t =
    match seen sender tuple with
    | Some r -> r
    | None ->
      cost.remote_queries <- cost.remote_queries + 1;
      cost.nodes_visited <- cost.nodes_visited + 1;
      cost.query_bytes <- cost.query_bytes + request_bytes tuple;
      let sub = step sender tuple depth in
      cost.query_bytes <-
        cost.query_bytes + response_bytes (Provenance.Derivation.to_expr_by_tuple sub);
      sub
  in
  let tree = step at root 0 in
  finish cost !partial tree

(* The live record source: the running nodes' [Prov_store]s.  Honors
   the runtime's configured granularity: the querying node sees full
   node-level detail inside its own domain only. *)
let query (t : Runtime.t) ~(at : string) (tuple : Tuple.t) : result =
  let topo = Runtime.topology t in
  let home_as = Net.Topology.as_of topo at in
  let lookup addr tuple _ident =
    match (Runtime.config t).Config.granularity with
    | Config.As_level when Net.Topology.as_of topo addr <> home_as ->
      Cut (Printf.sprintf "as%d" (Net.Topology.as_of topo addr))
    | Config.Node_level | Config.As_level ->
      if Runtime.is_node_down t addr then Missing
      else
        let store = (Runtime.node t addr).Runtime.n_prov in
        Found (Prov_store.derivs_of store tuple, Prov_store.received_from store tuple)
  in
  walk ~lookup ~at tuple

(* Memoized [Store.Prov_log.lookup]: a walk revisits identities, and
   the findings of one query share subtrees. *)
let memo_lookup (log : Store.Prov_log.t) : string -> Store.Prov_log.record list =
  let cache : (string, Store.Prov_log.record list) Hashtbl.t = Hashtbl.create 64 in
  fun ident ->
    match Hashtbl.find_opt cache ident with
    | Some rs -> rs
    | None ->
      let rs = Store.Prov_log.lookup log ~ident in
      Hashtbl.add cache ident rs;
      rs

(* The offline record source: the persisted provenance log, read
   through [records_of].  Record selection replaces node lookup — the
   latest record for (node, ident), optionally bounded to the log
   prefix stamped at or before [before] ("the log as of time T") — and
   a missing record plays the role of a crashed node.  The AS cut
   compares the *stored* domain keys against the root record's instead
   of consulting a topology. *)
let offline_walk ~(records_of : string -> Store.Prov_log.record list)
    ~(granularity : Config.granularity) ~(before : float option) ~(at : string)
    ~(ident : string) : result =
  (* [lookup] returns oldest first, so the last survivor wins. *)
  let record_for addr ident : Store.Prov_log.record option =
    List.fold_left
      (fun acc (r : Store.Prov_log.record) ->
        if
          String.equal r.r_node addr
          && (match before with None -> true | Some t -> r.r_at <= t)
        then Some r
        else acc)
      None (records_of ident)
  in
  match record_for at ident with
  | None ->
    finish
      { remote_queries = 0; query_bytes = 0; nodes_visited = 1 }
      true
      (Provenance.Derivation.Unreachable { tuple = ident; location = at })
  | Some root ->
    let lookup addr _tuple ident =
      match record_for addr ident with
      | None -> Missing
      | Some r ->
        if granularity = Config.As_level && not (String.equal r.r_domain root.r_domain)
        then Cut r.r_domain
        else Found (r.r_derivs, r.r_received_from)
    in
    walk ~lookup ~at root.r_tuple

let offline_query (log : Store.Prov_log.t) ?(granularity = Config.Node_level)
    ?(before : float option) ~(at : string) ~(ident : string) () : result =
  offline_walk ~records_of:(memo_lookup log) ~granularity ~before ~at ~ident

(* Nodes holding one of [records], oldest occurrence first. *)
let nodes_of (records : Store.Prov_log.record list) : string list =
  List.fold_left
    (fun acc (r : Store.Prov_log.record) ->
      if List.mem r.r_node acc then acc else acc @ [ r.r_node ])
    [] records

let offline_nodes (log : Store.Prov_log.t) ~(ident : string) : string list =
  nodes_of (Store.Prov_log.lookup log ~ident)

(* Every (node, identity) root of [idents], walked over one memo. *)
let offline_findings (log : Store.Prov_log.t) ~(granularity : Config.granularity)
    ~(before : float option) (idents : string list) : (string * string * result) list =
  let records_of = memo_lookup log in
  List.concat_map
    (fun ident ->
      List.map
        (fun at -> (at, ident, offline_walk ~records_of ~granularity ~before ~at ~ident))
        (nodes_of (records_of ident)))
    idents

(* Latency-annotated view of a traceback result: the derivation tree's
   [a_created] stamps are virtual-clock times (Prov_store records them
   at [Net.Event_sim.now]), so the tree doubles as a profile of when
   each step of the derivation chain landed, with the chain that gated
   the root tuple marked as the critical path.  This is the
   provenance-side complement of the span trace: the trace shows where
   time went per handler, this shows *which derivation* the completion
   time waited on. *)
let latency_tree (r : result) : string =
  Provenance.Derivation.to_latency_string r.tree

let completion_time (r : result) : float = Provenance.Derivation.completion r.tree

let critical_path (r : result) : Provenance.Derivation.t list =
  Provenance.Derivation.critical_path r.tree

(* The source principals/nodes a tuple ultimately depends on - the
   "trace the origins of its data" primitive of the trust-management
   use case. *)
let origins (t : Runtime.t) ~(at : string) (tuple : Tuple.t) : string list =
  let r = query t ~at tuple in
  Provenance.Prov_expr.bases r.expr

(* Delete all tuples at [at] whose provenance involves [suspect]: the
   paper's diagnostics reaction ("when a node is detected to be
   suspicious, one can query the online provenance to delete all
   routing entries associated with the malicious node").  Returns the
   deleted tuples. *)
let purge_suspect (t : Runtime.t) ~(at : string) ~(suspect : string) : Tuple.t list =
  let node = Runtime.node t at in
  let deleted = ref [] in
  List.iter
    (fun rel ->
      List.iter
        (fun tuple ->
          let expr = Prov_store.expr_of node.Runtime.n_prov tuple in
          let involved =
            List.exists (String.equal suspect) (Provenance.Prov_expr.bases expr)
            ||
            (* Distributed mode: walk the pointers. *)
            (Provenance.Prov_expr.equal expr Provenance.Prov_expr.zero
            && Prov_store.derivs_of node.Runtime.n_prov tuple <> []
            && List.exists (String.equal suspect) (origins t ~at tuple))
          in
          if involved then begin
            Db.remove node.Runtime.n_db tuple;
            deleted := tuple :: !deleted
          end)
        (Db.tuples_of node.Runtime.n_db rel))
    (Db.relation_names node.Runtime.n_db);
  !deleted
