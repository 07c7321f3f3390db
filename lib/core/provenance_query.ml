(* Unified provenance-query entry point.

   Every way of asking "where did this tuple come from" — the live
   distributed traceback of Section 4.1, the offline walk over the
   persisted log, and the sampled/Bloom-digest approximations of
   Section 5.2 — answers the same [query] record.  Callers pick a
   target (one tuple identity, or every tuple of a relation), an
   optional time bound, a granularity, and a backend; the answer is
   either full derivation trees or, for the sampled backend, a ranked
   suspect list from random moonwalks over the flow log. *)

open Engine

type target =
  | Tuple_id of string  (* interned identity, e.g. "path(a,c,2)" *)
  | Relation of string

type backend =
  | Live of Runtime.t  (* walk the running nodes' provenance stores *)
  | Disk of Store.Prov_log.t  (* walk full records in the offline log *)
  | Sampled of Store.Prov_log.t  (* Bloom prefilter + random moonwalk *)

type query = {
  q_target : target;
  q_before : float option;
      (* offline backends: only use log records stamped <= this *)
  q_granularity : Config.granularity option;
      (* offline backends; [None] = node level.  The live backend
         always answers at the runtime's configured granularity. *)
  q_backend : backend;
}

type finding = {
  f_node : string;  (* node the walk was rooted at *)
  f_ident : string;
  f_result : Traceback.result;
}

type answer =
  | Trees of finding list
  | Suspects of {
      prefilter : string list;
          (* nodes whose persisted Bloom digests claim the target *)
      suspects : (string * int) list;  (* moonwalk origins, hits desc *)
    }

let c_prefilter_hits =
  Obs.Metrics.counter Obs.Metrics.default "forensics.bloom_prefilter_hits"

let c_prefilter_misses =
  Obs.Metrics.counter Obs.Metrics.default "forensics.bloom_prefilter_misses"

let c_walks = Obs.Metrics.counter Obs.Metrics.default "forensics.sampled_query_walks"

let ident_matches (target : target) (ident : string) : bool =
  match target with
  | Tuple_id id -> String.equal id ident
  | Relation rel ->
    let prefix = rel ^ "(" in
    String.length ident >= String.length prefix
    && String.equal (String.sub ident 0 (String.length prefix)) prefix

(* --- live backend ------------------------------------------------------ *)

let live_idents (t : Runtime.t) (target : target) : (string * Tuple.t) list =
  match target with
  | Tuple_id ident ->
    List.filter_map
      (fun (n : Runtime.node) ->
        Option.map
          (fun tuple -> (n.Runtime.n_addr, tuple))
          (Runtime.find_tuple t ~at:n.Runtime.n_addr ~ident))
      (Runtime.nodes t)
  | Relation rel -> Runtime.query_all t rel

let run_live (t : Runtime.t) (target : target) : answer =
  let findings =
    List.map
      (fun (addr, tuple) ->
        { f_node = addr;
          f_ident = Tuple.interned_identity tuple;
          f_result = Traceback.query t ~at:addr tuple })
      (live_idents t target)
  in
  Trees findings

(* --- disk backend ------------------------------------------------------ *)

let disk_idents (log : Store.Prov_log.t) (target : target) : string list =
  match target with
  | Tuple_id ident -> [ ident ]
  | Relation rel -> Store.Prov_log.idents_of_relation log rel

let run_disk (log : Store.Prov_log.t) ~(granularity : Config.granularity)
    ~(before : float option) (target : target) : answer =
  Trees
    (List.map
       (fun (node, ident, result) -> { f_node = node; f_ident = ident; f_result = result })
       (Traceback.offline_findings log ~granularity ~before (disk_idents log target)))

(* --- sampled backend --------------------------------------------------- *)

(* §5.2: before walking, consult the persisted per-(node, epoch) Bloom
   digests — nodes whose digest contains the target identity around
   the times it flowed are the plausible walk territory; an identity
   no digest admits is (modulo sampling loss) not in the log at all.
   The moonwalk itself runs over the matching 'F' flow edges. *)
let run_sampled (log : Store.Prov_log.t) ~(rng : Crypto.Rng.t) ~(walks : int)
    ~(max_hops : int) ~(before : float option) (target : target) : answer =
  let flows =
    List.filter
      (fun (f : Store.Prov_log.flow) ->
        ident_matches target f.Store.Prov_log.fl_ident
        && (match before with None -> true | Some t -> f.fl_time <= t))
      (Store.Prov_log.flows log)
  in
  (* One digest probe per distinct (epoch, identity) the flows cover. *)
  let probes = Hashtbl.create 16 in
  List.iter
    (fun (f : Store.Prov_log.flow) ->
      let key = (Store.Prov_log.epoch_of log f.fl_time, f.fl_ident) in
      if not (Hashtbl.mem probes key) then Hashtbl.replace probes key f.fl_time)
    flows;
  let prefilter = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, ident) time ->
      match Store.Prov_log.digest_nodes log ~time ident with
      | [] -> Obs.Metrics.inc c_prefilter_misses
      | nodes ->
        Obs.Metrics.inc ~by:(List.length nodes) c_prefilter_hits;
        List.iter (fun n -> Hashtbl.replace prefilter n ()) nodes)
    probes;
  let prefilter_nodes =
    Hashtbl.fold (fun n () acc -> n :: acc) prefilter [] |> List.sort String.compare
  in
  let suspects =
    if flows = [] then []
    else begin
      Obs.Metrics.inc ~by:walks c_walks;
      Forensics.random_moonwalk rng ~flows ~walks ~max_hops
    end
  in
  Suspects { prefilter = prefilter_nodes; suspects }

(* --- entry point ------------------------------------------------------- *)

let run ?(rng : Crypto.Rng.t option) ?(walks = 200) ?(max_hops = 32)
    (q : query) : answer =
  match q.q_backend with
  | Live t -> run_live t q.q_target
  | Disk log ->
    let granularity =
      Option.value q.q_granularity ~default:Config.Node_level
    in
    run_disk log ~granularity ~before:q.q_before q.q_target
  | Sampled log ->
    let rng =
      match rng with Some r -> r | None -> Crypto.Rng.create ~seed:7
    in
    run_sampled log ~rng ~walks ~max_hops ~before:q.q_before q.q_target

(* --- rendering --------------------------------------------------------- *)

(* Derivation tree as a JSON value, for `psn trace --format json`. *)
let rec tree_to_json (t : Provenance.Derivation.t) : Obs.Json.t =
  let ann_fields (a : Provenance.Derivation.annotation) =
    [ ("location", Obs.Json.Str a.Provenance.Derivation.a_location);
      ("created", Obs.Json.Float a.a_created) ]
    @ (match a.a_says with Some s -> [ ("says", Obs.Json.Str s) ] | None -> [])
    @
    match a.a_signature with
    | Some _ -> [ ("signed", Obs.Json.Bool true) ]
    | None -> []
  in
  match t with
  | Provenance.Derivation.Leaf { tuple; ann } ->
    Obs.Json.Obj
      ([ ("kind", Obs.Json.Str "leaf"); ("tuple", Obs.Json.Str tuple) ]
      @ ann_fields ann)
  | Provenance.Derivation.Rule { rule; tuple; ann; children } ->
    Obs.Json.Obj
      ([ ("kind", Obs.Json.Str "rule");
         ("rule", Obs.Json.Str rule);
         ("tuple", Obs.Json.Str tuple) ]
      @ ann_fields ann
      @ [ ("children", Obs.Json.List (List.map tree_to_json children)) ])
  | Provenance.Derivation.Union { tuple; location; alternatives } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.Str "union");
        ("tuple", Obs.Json.Str tuple);
        ("location", Obs.Json.Str location);
        ("alternatives", Obs.Json.List (List.map tree_to_json alternatives)) ]
  | Provenance.Derivation.Unreachable { tuple; location } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.Str "unreachable");
        ("tuple", Obs.Json.Str tuple);
        ("location", Obs.Json.Str location) ]
  | Provenance.Derivation.Shared { tuple; location } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.Str "shared");
        ("tuple", Obs.Json.Str tuple);
        ("location", Obs.Json.Str location) ]

let answer_to_json (a : answer) : Obs.Json.t =
  match a with
  | Trees findings ->
    Obs.Json.Obj
      [ ( "findings",
          Obs.Json.List
            (List.map
               (fun f ->
                 Obs.Json.Obj
                   [ ("node", Obs.Json.Str f.f_node);
                     ("tuple", Obs.Json.Str f.f_ident);
                     ( "expr",
                       Obs.Json.Str
                         (Provenance.Prov_expr.canonical_string
                            f.f_result.Traceback.expr) );
                     ("partial", Obs.Json.Bool f.f_result.Traceback.partial);
                     ("tree", tree_to_json f.f_result.Traceback.tree) ])
               findings) ) ]
  | Suspects { prefilter; suspects } ->
    Obs.Json.Obj
      [ ( "prefilter",
          Obs.Json.List (List.map (fun n -> Obs.Json.Str n) prefilter) );
        ( "suspects",
          Obs.Json.List
            (List.map
               (fun (node, hits) ->
                 Obs.Json.Obj
                   [ ("node", Obs.Json.Str node); ("hits", Obs.Json.Int hits) ])
               suspects) ) ]
