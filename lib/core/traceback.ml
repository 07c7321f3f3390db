(* Distributed provenance queries (Section 4.1).

   With *distributed* provenance each node only stores derivation
   pointers ("it is derived from link(@a,b) which is available
   locally, and reachable(@b,c) which is stored at node b"), and a
   traceback reconstructs the full derivation tree on demand by
   recursively querying the nodes along the chain - the paper's IP
   traceback analogy.  The query itself costs messages and bytes,
   which is the other side of the local-vs-distributed trade-off
   (ablation A in DESIGN.md). *)

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
         the derivation chain was fail-stopped when queried *)
}

let c_partial = Obs.Metrics.counter Obs.Metrics.default "traceback.partial_results"

(* Approximate wire cost of one remote provenance query: a request
   naming the tuple plus a response carrying the remote subtree
   (sized as its expression encoding). *)
let request_bytes (tuple : Tuple.t) : int = 16 + Tuple.wire_size tuple

let response_bytes (e : Provenance.Prov_expr.t) : int =
  16 + String.length (Provenance.Prov_expr.encode e)

let max_depth = 64

(* Reconstruct the derivation tree of [tuple] as stored at [addr],
   following remote pointers across nodes.  [visited] breaks cycles
   (a tuple rederived through itself across nodes). *)
let query (t : Runtime.t) ~(at : string) (tuple : Tuple.t) : result =
  let cost = { remote_queries = 0; query_bytes = 0; nodes_visited = 1 } in
  let visited = Hashtbl.create 64 in
  let partial = ref false in
  (* AS-level granularity (Section 5.3): the querying node sees full
     node-level detail inside its own domain, but a walk that crosses
     into another AS stops at the boundary with a single leaf naming
     the origin domain — matching what [Runtime.send] shipped. *)
  let topo = Runtime.topology t in
  let home_as = Net.Topology.as_of topo at in
  let domain_cut addr =
    match (Runtime.config t).Config.granularity with
    | Config.Node_level -> None
    | Config.As_level ->
      let a = Net.Topology.as_of topo addr in
      if a = home_as then None else Some (Printf.sprintf "as%d" a)
  in
  let rec walk (addr : string) (tuple : Tuple.t) (depth : int) : Provenance.Derivation.t =
    let key = addr ^ "|" ^ Tuple.interned_identity tuple in
    let ident = Tuple.interned_identity tuple in
    match domain_cut addr with
    | Some dom ->
      Provenance.Derivation.Leaf
        { tuple = ident; ann = Provenance.Derivation.annot ~says:dom dom }
    | None ->
    (* Graceful degradation: a crashed node can't answer a provenance
       query, so its subtree becomes an explicit [Unreachable] stub
       instead of hanging the traceback or raising. *)
    if Runtime.is_node_down t addr then begin
      partial := true;
      Provenance.Derivation.Unreachable { tuple = ident; location = addr }
    end
    else
    let node = Runtime.node t addr in
    if depth > max_depth || Hashtbl.mem visited key then
      Provenance.Derivation.Leaf
        { tuple = ident; ann = Provenance.Derivation.annot addr }
    else begin
      Hashtbl.add visited key ();
      let derivs = Prov_store.derivs_of node.Runtime.n_prov tuple in
      let received = Prov_store.received_from node.Runtime.n_prov tuple in
      let local_alternatives =
        List.map
          (fun (r : Prov_store.deriv_record) ->
            let children =
              List.map
                (fun (b, origin, says) ->
                  match origin with
                  | Prov_store.O_local -> walk addr b (depth + 1)
                  | Prov_store.O_remote sender ->
                    cost.remote_queries <- cost.remote_queries + 1;
                    cost.nodes_visited <- cost.nodes_visited + 1;
                    cost.query_bytes <- cost.query_bytes + request_bytes b;
                    let sub = walk sender b (depth + 1) in
                    cost.query_bytes <-
                      cost.query_bytes
                      + response_bytes (Provenance.Derivation.to_expr_by_tuple sub);
                    (match says with
                    | Some _ -> sub
                    | None -> sub))
                r.dr_body
            in
            Provenance.Derivation.Rule
              { rule = r.dr_rule;
                tuple = ident;
                ann =
                  Provenance.Derivation.annot ~created:r.dr_at
                    ?says:
                      (match r.dr_signer with
                      | Some s -> Some s
                      | None -> Some addr)
                    ?signature:r.dr_signature addr;
                children })
          derivs
      in
      (* Tuples that (also) arrived over the network are traced at
         their senders, yielding the remote alternatives of the
         union. *)
      let remote_alternatives =
        List.map
            (fun sender ->
              cost.remote_queries <- cost.remote_queries + 1;
              cost.nodes_visited <- cost.nodes_visited + 1;
              cost.query_bytes <- cost.query_bytes + request_bytes tuple;
              let sub = walk sender tuple (depth + 1) in
              cost.query_bytes <-
                cost.query_bytes
                + response_bytes (Provenance.Derivation.to_expr_by_tuple sub);
              sub)
            received
      in
      match local_alternatives @ remote_alternatives with
      | [] ->
        (* A base tuple: leaf asserted by its home node. *)
        Provenance.Derivation.Leaf
          { tuple = ident; ann = Provenance.Derivation.annot ~says:addr addr }
      | [ one ] -> one
      | alternatives -> Provenance.Derivation.Union { tuple = ident; alternatives }
    end
  in
  let tree = walk at tuple 0 in
  if !partial then Obs.Metrics.inc c_partial;
  { tree; expr = Provenance.Derivation.to_expr tree; cost; partial = !partial }

(* --- offline backend (this PR's tentpole) ------------------------------ *)

(* The same recursive walk, but over the persisted provenance log
   instead of live [Prov_store]s: record selection replaces node
   lookup, a missing record plays the role of a crashed node
   (Unreachable stub + partial), and the AS-granularity cut compares
   the *stored* domain keys instead of consulting a topology.  The
   tree-construction cases are kept textually parallel to [query]
   above on purpose — for a tuple that is still live, the offline
   tree's [Prov_expr.canonical_string] must be byte-identical to the
   online one. *)

let offline_query (log : Store.Prov_log.t)
    ?(granularity = Config.Node_level) ?(before : float option)
    ~(at : string) ~(ident : string) () : result =
  let cost = { remote_queries = 0; query_bytes = 0; nodes_visited = 1 } in
  let visited = Hashtbl.create 64 in
  let partial = ref false in
  (* Per-query cache of index lookups: the walk revisits identities
     (visited-set checks happen after record selection, as the live
     walk consults the node before its visited check). *)
  let cache : (string, Store.Prov_log.record list) Hashtbl.t = Hashtbl.create 64 in
  let records_of ident =
    match Hashtbl.find_opt cache ident with
    | Some rs -> rs
    | None ->
      let rs = Store.Prov_log.lookup log ~ident in
      Hashtbl.add cache ident rs;
      rs
  in
  (* Latest record for (addr, ident), optionally bounded to the log
     prefix stamped at or before [before] — querying "the log as of
     time T".  [lookup] returns oldest first, so the last survivor
     wins. *)
  let record_for addr ident : Store.Prov_log.record option =
    List.fold_left
      (fun acc (r : Store.Prov_log.record) ->
        if
          String.equal r.Store.Prov_log.r_node addr
          && (match before with None -> true | Some t -> r.Store.Prov_log.r_at <= t)
        then Some r
        else acc)
      None (records_of ident)
  in
  (* AS-level granularity offline: the querying node's domain is the
     domain stored with the root record, and the cut fires when a walk
     reaches a record persisted under a different domain key. *)
  let home_domain =
    match record_for at ident with
    | Some r -> r.Store.Prov_log.r_domain
    | None -> ""
  in
  let domain_cut dom =
    match granularity with
    | Config.Node_level -> None
    | Config.As_level -> if String.equal dom home_domain then None else Some dom
  in
  let rec walk (addr : string) (tuple : Tuple.t) (depth : int) : Provenance.Derivation.t =
    let ident = Tuple.interned_identity tuple in
    let key = addr ^ "|" ^ ident in
    match record_for addr ident with
    | None ->
      (* No record for this tuple at this node: the log can't answer,
         the offline analogue of a crashed node. *)
      partial := true;
      Provenance.Derivation.Unreachable { tuple = ident; location = addr }
    | Some r ->
      (match domain_cut r.Store.Prov_log.r_domain with
      | Some dom ->
        Provenance.Derivation.Leaf
          { tuple = ident; ann = Provenance.Derivation.annot ~says:dom dom }
      | None ->
        if depth > max_depth || Hashtbl.mem visited key then
          Provenance.Derivation.Leaf
            { tuple = ident; ann = Provenance.Derivation.annot addr }
        else begin
          Hashtbl.add visited key ();
          let local_alternatives =
            List.map
              (fun (d : Store.Prov_log.deriv) ->
                let children =
                  List.map
                    (fun (b : Store.Prov_log.body_item) ->
                      match b.Store.Prov_log.b_origin with
                      | Store.Prov_log.Local -> walk addr b.b_tuple (depth + 1)
                      | Store.Prov_log.Remote sender ->
                        cost.remote_queries <- cost.remote_queries + 1;
                        cost.nodes_visited <- cost.nodes_visited + 1;
                        cost.query_bytes <- cost.query_bytes + request_bytes b.b_tuple;
                        let sub = walk sender b.b_tuple (depth + 1) in
                        cost.query_bytes <-
                          cost.query_bytes
                          + response_bytes (Provenance.Derivation.to_expr_by_tuple sub);
                        sub)
                    d.Store.Prov_log.d_body
                in
                Provenance.Derivation.Rule
                  { rule = d.d_rule;
                    tuple = ident;
                    ann =
                      Provenance.Derivation.annot ~created:d.d_at
                        ?says:
                          (match d.d_signer with
                          | Some s -> Some s
                          | None -> Some addr)
                        ?signature:d.d_signature addr;
                    children })
              r.Store.Prov_log.r_derivs
          in
          let remote_alternatives =
            List.map
              (fun sender ->
                cost.remote_queries <- cost.remote_queries + 1;
                cost.nodes_visited <- cost.nodes_visited + 1;
                cost.query_bytes <- cost.query_bytes + request_bytes tuple;
                let sub = walk sender tuple (depth + 1) in
                cost.query_bytes <-
                  cost.query_bytes
                  + response_bytes (Provenance.Derivation.to_expr_by_tuple sub);
                sub)
              r.Store.Prov_log.r_received_from
          in
          match local_alternatives @ remote_alternatives with
          | [] ->
            Provenance.Derivation.Leaf
              { tuple = ident; ann = Provenance.Derivation.annot ~says:addr addr }
          | [ one ] -> one
          | alternatives -> Provenance.Derivation.Union { tuple = ident; alternatives }
        end)
  in
  let tree =
    match record_for at ident with
    | None ->
      partial := true;
      Provenance.Derivation.Unreachable { tuple = ident; location = at }
    | Some r -> walk at r.Store.Prov_log.r_tuple 0
  in
  if !partial then Obs.Metrics.inc c_partial;
  { tree; expr = Provenance.Derivation.to_expr tree; cost; partial = !partial }

(* Nodes holding a record for [ident], newest occurrence last —
   offline queries that don't name a node root at each of these. *)
let offline_nodes (log : Store.Prov_log.t) ~(ident : string) : string list =
  List.fold_left
    (fun acc (r : Store.Prov_log.record) ->
      if List.exists (String.equal r.Store.Prov_log.r_node) acc then acc
      else acc @ [ r.Store.Prov_log.r_node ])
    []
    (Store.Prov_log.lookup log ~ident)

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
