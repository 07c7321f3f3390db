(* Per-node tuple store.

   Each relation is a set of tuples with per-tuple soft-state metadata
   (creation time, expiry).  Relations can carry a *replace policy*
   (from `#key` directives or MIN/MAX aggregate heads): tuples are
   keyed on a column subset, and an insert for an existing key either
   replaces the old tuple or is rejected, depending on the preference
   order.  This implements P2's materialized-table semantics and the
   replace-based convergence of Best-Path (see DESIGN.md). *)

type prefer =
  | P_last (* last write wins *)
  | P_min of int (* keep the tuple with the smallest value at index *)
  | P_max of int

type policy =
  | Set (* plain set semantics *)
  | Replace of { key : int list; prefer : prefer }

type meta = {
  mutable inserted_at : float;
  mutable expires_at : float option;
  mutable asserters : Value.t list;
  (* Principals that have asserted this tuple via SeNDlog's [says];
     empty in plain NDlog mode.  A tuple can be asserted by several
     neighbours, and a `W says p(...)` literal enumerates them. *)
}

(* Column-subset keys: arrays of hash-consed {!Value.id}s, so key
   equality and hashing are machine-int loops instead of structural
   value walks.  [Value.id] interns through [Value.equal]/[Value.hash]
   (numeric values compare across representations), so an index probe
   still finds exactly the tuples a full-scan match would. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (k : t) = Array.fold_left (fun acc i -> (acc * 31) + i) 7 k
end

module Key_tbl = Hashtbl.Make (Key)

let key_ids (vs : Value.t list) : int array =
  Array.of_list (List.map Value.id vs)

type rel_store = {
  tuples : meta Tuple.Table.t;
  mutable policy : policy;
  by_key : Tuple.t Key_tbl.t;
  indexes : (int list, Tuple.t list ref Key_tbl.t) Hashtbl.t;
      (* secondary hash indexes, one per column subset, built lazily on
         the first probe of that subset and maintained incrementally by
         every insert/replace/remove/evict thereafter *)
}

type t = {
  rels : (string, rel_store) Hashtbl.t;
  ttls : (string, float) Hashtbl.t; (* soft-state lifetime per relation *)
  indexing : bool; (* when off, [probe] falls back to a scan *)
}

(* Shared-registry instrumentation of the index machinery, created at
   module initialization so worker domains only ever read the handles.
   They survive [Obs.Metrics.reset] (reset zeroes series in place). *)
let c_probes = Obs.Metrics.counter Obs.Metrics.default "db.index_probes"
let c_hits = Obs.Metrics.counter Obs.Metrics.default "db.index_hits"
let c_builds = Obs.Metrics.counter Obs.Metrics.default "db.index_builds"
let c_scans = Obs.Metrics.counter Obs.Metrics.default "db.full_scans"

let create ?(indexing = true) () =
  { rels = Hashtbl.create 32;
    ttls = Hashtbl.create 8;
    indexing }

let rel_store (db : t) (name : string) : rel_store =
  match Hashtbl.find_opt db.rels name with
  | Some r -> r
  | None ->
    let r =
      { tuples = Tuple.Table.create 64;
        policy = Set;
        by_key = Key_tbl.create 16;
        indexes = Hashtbl.create 4 }
    in
    Hashtbl.add db.rels name r;
    r

(* --- secondary indexes ----------------------------------------------- *)

let index_add (idx : Tuple.t list ref Key_tbl.t) (cols : int list) (t : Tuple.t) :
    unit =
  match Tuple.key_opt t cols with
  | None -> () (* tuple of a different arity: unreachable via these columns *)
  | Some k -> (
    let k = key_ids k in
    match Key_tbl.find_opt idx k with
    | Some bucket -> bucket := t :: !bucket
    | None -> Key_tbl.replace idx k (ref [ t ]))

let index_remove (idx : Tuple.t list ref Key_tbl.t) (cols : int list) (t : Tuple.t) :
    unit =
  match Tuple.key_opt t cols with
  | None -> ()
  | Some k -> (
    let k = key_ids k in
    match Key_tbl.find_opt idx k with
    | None -> ()
    | Some bucket -> (
      match List.filter (fun t' -> not (Tuple.equal t t')) !bucket with
      | [] -> Key_tbl.remove idx k
      | rest -> bucket := rest))

let add_to_indexes (store : rel_store) (t : Tuple.t) : unit =
  Hashtbl.iter (fun cols idx -> index_add idx cols t) store.indexes

let remove_from_indexes (store : rel_store) (t : Tuple.t) : unit =
  Hashtbl.iter (fun cols idx -> index_remove idx cols t) store.indexes

(* The index over [cols], building it from the current tuple set on
   first use. *)
let index_for (store : rel_store) (cols : int list) : Tuple.t list ref Key_tbl.t =
  match Hashtbl.find_opt store.indexes cols with
  | Some idx -> idx
  | None ->
    Obs.Metrics.inc c_builds;
    let idx = Key_tbl.create (max 16 (Tuple.Table.length store.tuples)) in
    Tuple.Table.iter (fun t _ -> index_add idx cols t) store.tuples;
    Hashtbl.replace store.indexes cols idx;
    idx

let set_policy (db : t) (name : string) (policy : policy) : unit =
  (rel_store db name).policy <- policy

let policy (db : t) (name : string) : policy = (rel_store db name).policy

(* Setting a TTL only affects *future* inserts. *)
let set_ttl (db : t) (name : string) (seconds : float) : unit =
  Hashtbl.replace db.ttls name seconds

let ttl (db : t) (name : string) : float option = Hashtbl.find_opt db.ttls name

type insert_result =
  | Added
  | Refreshed (* already present; soft-state lifetime extended *)
  | New_asserter (* already present, but now asserted by a new principal *)
  | Replaced of Tuple.t (* keyed relation: the returned old tuple was evicted *)
  | Rejected (* keyed relation: existing tuple preferred *)

(* Results that introduce new information and must join the
   semi-naive frontier. *)
let result_is_new = function
  | Added | New_asserter | Replaced _ -> true
  | Refreshed | Rejected -> false

(* Compare a candidate against the incumbent under a preference
   order; [true] when the candidate should replace it.  Ties on the
   preferred column fall back to the structural whole-tuple order, so
   which equal-cost witness survives does not depend on arrival order
   — the property the sharded simulator's byte-identity rests on. *)
let candidate_wins prefer ~incumbent ~candidate =
  let tie () = Tuple.compare candidate incumbent < 0 in
  match prefer with
  | P_last -> true
  | P_min i ->
    let c = Value.compare (Tuple.arg candidate i) (Tuple.arg incumbent i) in
    c < 0 || (c = 0 && tie ())
  | P_max i ->
    let c = Value.compare (Tuple.arg candidate i) (Tuple.arg incumbent i) in
    c > 0 || (c = 0 && tie ())

let insert (db : t) ~(now : float) ?(asserted_by : Value.t option)
    (tuple : Tuple.t) : insert_result =
  let store = rel_store db tuple.rel in
  let expires_at = Option.map (fun s -> now +. s) (ttl db tuple.rel) in
  let asserters = Option.to_list asserted_by in
  let add_new () =
    Tuple.Table.replace store.tuples tuple { inserted_at = now; expires_at; asserters };
    add_to_indexes store tuple
  in
  (* Refresh an existing tuple's soft state (P2's semantics: a tuple
     stays alive as long as it keeps being derived); reports
     [New_asserter] when the asserting principal is new for this
     tuple. *)
  let refresh (meta : meta) =
    meta.expires_at <- expires_at;
    match asserted_by with
    | Some p when not (List.exists (Value.equal p) meta.asserters) ->
      meta.asserters <- p :: meta.asserters;
      New_asserter
    | Some _ | None -> Refreshed
  in
  match store.policy with
  | Set -> (
    match Tuple.Table.find_opt store.tuples tuple with
    | Some meta -> refresh meta
    | None ->
      add_new ();
      Added)
  | Replace { key; prefer } -> (
    let k = key_ids (Tuple.key_of tuple key) in
    match Key_tbl.find_opt store.by_key k with
    | None ->
      add_new ();
      Key_tbl.replace store.by_key k tuple;
      Added
    | Some incumbent when Tuple.equal incumbent tuple -> (
      match Tuple.Table.find_opt store.tuples tuple with
      | Some meta -> refresh meta
      | None ->
        add_new ();
        Added)
    | Some incumbent ->
      if candidate_wins prefer ~incumbent ~candidate:tuple then begin
        Tuple.Table.remove store.tuples incumbent;
        remove_from_indexes store incumbent;
        add_new ();
        Key_tbl.replace store.by_key k tuple;
        Replaced incumbent
      end
      else Rejected)

let asserters_of (db : t) (tuple : Tuple.t) : Value.t list =
  match Hashtbl.find_opt db.rels tuple.rel with
  | None -> []
  | Some store -> (
    match Tuple.Table.find_opt store.tuples tuple with
    | None -> []
    | Some meta -> meta.asserters)

let mem (db : t) (tuple : Tuple.t) : bool =
  match Hashtbl.find_opt db.rels tuple.rel with
  | None -> false
  | Some store -> Tuple.Table.mem store.tuples tuple

(* The live tuple currently holding this tuple's keyed group (the
   group's replace-policy winner), if any. *)
let incumbent_of (db : t) (tuple : Tuple.t) : Tuple.t option =
  match Hashtbl.find_opt db.rels tuple.rel with
  | None -> None
  | Some store -> (
    match store.policy with
    | Set -> None
    | Replace { key; _ } -> (
      match Tuple.key_opt tuple key with
      | None -> None
      | Some vs -> (
        match Key_tbl.find_opt store.by_key (key_ids vs) with
        | Some t when Tuple.Table.mem store.tuples t -> Some t
        | Some _ | None -> None)))

let remove (db : t) (tuple : Tuple.t) : unit =
  match Hashtbl.find_opt db.rels tuple.rel with
  | None -> ()
  | Some store ->
    Tuple.Table.remove store.tuples tuple;
    remove_from_indexes store tuple;
    (match store.policy with
    | Set -> ()
    | Replace { key; _ } ->
      let k = key_ids (Tuple.key_of tuple key) in
      (match Key_tbl.find_opt store.by_key k with
      | Some t when Tuple.equal t tuple -> Key_tbl.remove store.by_key k
      | Some _ | None -> ()))

let iter_rel (db : t) (name : string) (f : Tuple.t -> unit) : unit =
  match Hashtbl.find_opt db.rels name with
  | None -> ()
  | Some store -> Tuple.Table.iter (fun t _ -> f t) store.tuples

let fold_rel (db : t) (name : string) (f : Tuple.t -> 'a -> 'a) (init : 'a) : 'a =
  match Hashtbl.find_opt db.rels name with
  | None -> init
  | Some store -> Tuple.Table.fold (fun t _ acc -> f t acc) store.tuples init

let tuples_of (db : t) (name : string) : Tuple.t list =
  fold_rel db name (fun t acc -> t :: acc) []

(* [probe db name ~cols ~key] enumerates the tuples of [name] whose
   projection on [cols] equals [key], through the secondary index on
   [cols].  With indexing disabled, or an empty column set, it
   degrades to a full scan.  The result is a superset filter: callers
   still run the full literal match against each returned tuple. *)
let probe (db : t) (name : string) ~(cols : int list) ~(key : Value.t list) :
    Tuple.t list =
  match Hashtbl.find_opt db.rels name with
  | None -> []
  | Some store ->
    if (not db.indexing) || cols = [] then begin
      Obs.Metrics.inc c_scans;
      Tuple.Table.fold (fun t _ acc -> t :: acc) store.tuples []
    end
    else begin
      Obs.Metrics.inc c_probes;
      match Key_tbl.find_opt (index_for store cols) (key_ids key) with
      | Some bucket ->
        Obs.Metrics.inc c_hits;
        !bucket
      | None -> []
    end

let cardinal (db : t) (name : string) : int =
  match Hashtbl.find_opt db.rels name with
  | None -> 0
  | Some store -> Tuple.Table.length store.tuples

let relation_names (db : t) : string list =
  Hashtbl.fold (fun k _ acc -> k :: acc) db.rels [] |> List.sort String.compare

(* Remove all tuples whose soft-state lifetime has passed; returns the
   evicted tuples so the caller can move their provenance to an
   offline store (Section 4.2 of the paper). *)
let evict_expired (db : t) ~(now : float) : Tuple.t list =
  let evicted = ref [] in
  Hashtbl.iter
    (fun _ store ->
      let dead =
        Tuple.Table.fold
          (fun t meta acc ->
            match meta.expires_at with
            | Some e when e <= now -> t :: acc
            | Some _ | None -> acc)
          store.tuples []
      in
      List.iter
        (fun t ->
          Tuple.Table.remove store.tuples t;
          remove_from_indexes store t;
          (match store.policy with
          | Set -> ()
          | Replace { key; _ } -> (
            let k = key_ids (Tuple.key_of t key) in
            match Key_tbl.find_opt store.by_key k with
            | Some cur when Tuple.equal cur t -> Key_tbl.remove store.by_key k
            | Some _ | None -> ()));
          evicted := t :: !evicted)
        dead)
    db.rels;
  !evicted

(* Apply `#key` / `#ttl` directives from a parsed program, and derive
   replace policies for MIN/MAX aggregate heads (group-by columns form
   the key; see DESIGN.md "Aggregates"). *)
let configure_from_program (db : t) (p : Ndlog.Ast.program) : unit =
  List.iter
    (function
      | Ndlog.Ast.D_ttl (rel, seconds) -> set_ttl db rel seconds
      | Ndlog.Ast.D_key (rel, key, hint) ->
        let prefer =
          match hint with
          | Ndlog.Ast.K_last -> P_last
          | Ndlog.Ast.K_min i -> P_min i
          | Ndlog.Ast.K_max i -> P_max i
        in
        set_policy db rel (Replace { key; prefer })
      | Ndlog.Ast.D_watch _ -> ())
    (Ndlog.Ast.directives p);
  List.iter
    (fun (r : Ndlog.Ast.rule) ->
      match Ndlog.Ast.head_agg r.rule_head with
      | Some (i, fn, _) -> (
        let rel = r.rule_head.head_pred in
        let nargs = List.length r.rule_head.head_args in
        let key = List.filter (fun j -> j <> i) (List.init nargs Fun.id) in
        match fn with
        | A_min -> set_policy db rel (Replace { key; prefer = P_min i })
        | A_max -> set_policy db rel (Replace { key; prefer = P_max i })
        | A_count | A_sum ->
          (* COUNT/SUM groups are recomputed wholesale each round; the
             key keeps one tuple per group. *)
          set_policy db rel (Replace { key; prefer = P_last }))
      | None -> ())
    (Ndlog.Ast.rules p)
