(* Trust management (Sections 3, 4.4, 4.5): Orchestra-style
   acceptance of updates based on the provenance of incoming data.

   "Provenance in our system enables any networked information node to
   trace the origins of its data, and hence enforce trust policies to
   accept or reject incoming updates based on the source origins."

   A [gate] wraps a trust policy; feeding it updates annotated with
   condensed provenance yields accept/reject decisions, statistics,
   and - for quantifiable trust - the computed level or vote count. *)

open Engine

type decision = {
  de_tuple : Tuple.t;
  de_accepted : bool;
  de_annotation : string; (* condensed provenance, e.g. "<a>" *)
  de_level : int option; (* security level when the policy uses levels *)
  de_votes : int option;
}

type gate = {
  g_policy : Provenance.Trust.policy;
  g_ctx : Provenance.Condense.ctx;
  mutable g_accepted : int;
  mutable g_rejected : int;
}

let create_gate (policy : Provenance.Trust.policy) : gate =
  { g_policy = policy;
    g_ctx = Provenance.Condense.create_ctx ();
    g_accepted = 0;
    g_rejected = 0 }

let levels_of_policy = function
  | Provenance.Trust.Min_security_level { levels; _ } -> Some levels
  | _ -> None

let principals_of_policy = function
  | Provenance.Trust.K_votes { principals; _ } -> Some principals
  | _ -> None

(* Decide on one update given its provenance expression.  The
   expression is condensed first, as the paper prescribes for
   trust enforcement at low overhead. *)
let offer (g : gate) (tuple : Tuple.t) (expr : Provenance.Prov_expr.t) : decision =
  let condensed, _ = Provenance.Condense.condense g.g_ctx expr in
  let accepted = Provenance.Trust.evaluate g.g_policy condensed in
  let level =
    Option.map
      (fun levels ->
        Provenance.Prov_expr.security_level condensed ~level:(fun k ->
            Option.value (List.assoc_opt k levels) ~default:0))
      (levels_of_policy g.g_policy)
  in
  let votes =
    Option.map
      (fun principals ->
        Provenance.Prov_expr.vote_count condensed
          ~principal_of:(fun p -> Some p)
          ~principals)
      (principals_of_policy g.g_policy)
  in
  let d =
    { de_tuple = tuple;
      de_accepted = accepted;
      de_annotation = Provenance.Prov_expr.to_annotation condensed;
      de_level = level;
      de_votes = votes }
  in
  if accepted then g.g_accepted <- g.g_accepted + 1 else g.g_rejected <- g.g_rejected + 1;
  d

(* Filter a node's relation through the gate using the provenance the
   runtime recorded: the routing-table audit from the paper's BGP
   example ("the path-vector protocol carries the entire path ... to
   allow ASes to enforce their respective policies"). *)
let audit_relation (g : gate) (t : Runtime.t) ~(at : string) (rel : string) :
    decision list =
  List.map
    (fun tuple -> offer g tuple (Runtime.provenance_of t ~at tuple))
    (Runtime.query t ~at rel)

let accepted (g : gate) : int = g.g_accepted
let rejected (g : gate) : int = g.g_rejected
