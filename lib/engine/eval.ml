(* Semi-naive bottom-up evaluation of localized NDlog / SeNDlog rules
   at one node.

   The evaluator is provenance-agnostic: every successful derivation
   is reported through the [on_derive] callback (tuple, rule, body
   tuples used), and the caller (Core.Runtime) decides how to record
   provenance, sign tuples, and so on.  Derived tuples whose head
   location is not the local address are returned as [emit]s for the
   network layer instead of being inserted.

   Aggregates:
   - MIN/MAX heads are evaluated as plain rules deriving candidate
     tuples; the relation's replace policy (installed by
     [Db.configure_from_program]) keeps only the best tuple per group
     and improvements re-enter the frontier.  This is exactly how
     Best-Path converges in P2 (transient worse routes are replaced).
   - COUNT/SUM heads are recomputed from scratch on every round
     (stratification has already rejected recursion through them). *)

open Ndlog.Ast

(* One derivation step: [d_head] was produced by rule [d_rule] from
   the positive body matches [d_body]; each body entry carries the
   asserting principal consumed by a [says] literal, if any. *)
type derivation = {
  d_rule : string;
  d_head : Tuple.t;
  d_body : (Tuple.t * Value.t option) list;
}

(* A tuple addressed to another node. *)
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

(* --- body matching -------------------------------------------------- *)

(* Enumerate matches of one positive predicate literal against a list
   of candidate tuples.  For a [says] literal, the asserter pattern is
   matched against each recorded asserter of the tuple (or against the
   supplied asserter for frontier tuples). *)
let match_literal_tuples (db : Db.t) (pred : pred) (says : term option)
    (bindings : Bindings.t) (candidates : (Tuple.t * Value.t option list) list) :
    (Bindings.t * Tuple.t * Value.t option) list =
  List.concat_map
    (fun (tuple, asserter_choices) ->
      if tuple.Tuple.rel <> pred.name then []
      else begin
        match Expr_eval.match_args bindings pred.args tuple with
        | None -> []
        | Some b -> (
          match says with
          | None -> [ (b, tuple, None) ]
          | Some says_pattern ->
            (* Enumerate asserters; for database tuples this is the
               recorded asserter set. *)
            let choices =
              match asserter_choices with
              | [] -> Db.asserters_of db tuple |> List.map Option.some
              | cs -> cs
            in
            List.filter_map
              (fun asserter ->
                match asserter with
                | None -> None (* says requires an asserted tuple *)
                | Some p -> (
                  match Expr_eval.match_term b says_pattern p with
                  | Some b' -> Some (b', tuple, Some p)
                  | None -> None))
              choices)
      end)
    candidates

(* --- join planning --------------------------------------------------- *)

(* Argument positions of [pred] whose pattern is already computable
   under [bindings] — a constant, a bound variable, or an expression
   over bound variables — together with their values.  These columns
   key the index probe; an empty set falls back to a full scan.  An
   expression that fails to evaluate is treated as unbound (the probe
   stays a superset of the true matches either way). *)
let bound_columns (bindings : Bindings.t) (pred : pred) : int list * Value.t list =
  let cols = ref [] and key = ref [] in
  List.iteri
    (fun i term ->
      let computable =
        match term with
        | T_const _ -> true
        | T_var v -> Bindings.is_bound v bindings
        | T_binop _ | T_app _ ->
          List.for_all (fun v -> Bindings.is_bound v bindings) (term_vars term)
      in
      if computable then
        match Expr_eval.eval bindings term with
        | v ->
          cols := i :: !cols;
          key := v :: !key
        | exception Expr_eval.Eval_error _ -> ())
    pred.args;
  (List.rev !cols, List.rev !key)

(* Candidate tuples for one literal under [bindings]: probe the
   secondary index on the bound columns (or scan when none are
   bound / indexing is off).  [match_literal_tuples] still performs
   the authoritative match on every candidate. *)
let indexed_candidates (db : Db.t) (pred : pred) (bindings : Bindings.t) :
    (Tuple.t * Value.t option list) list =
  let cols, key = bound_columns bindings pred in
  List.rev_map (fun t -> (t, [])) (Db.probe db pred.name ~cols ~key)

(* Shared empty delta set for non-semi-naive calls (aggregate
   recomputation); never mutated. *)
let no_delta_new : unit Tuple.Table.t = Tuple.Table.create 1

(* Evaluate the body of [rule] with the literal at positive-predicate
   index [delta_at] (0-based among positive predicates) drawn from
   [delta] instead of the database.  [delta_new] holds the frontier
   tuples that are *new this round* (freshly added or replacing):
   positive positions before the delta position exclude them, giving
   the standard semi-naive ordering in which a derivation touching
   several frontier tuples is found exactly once — at the pass of its
   first frontier position.  Returns complete bindings plus the body
   tuples used. *)
let eval_body (db : Db.t) (rule : rule) ~(self : Value.t option)
    ~(delta_at : int option) ~(delta : frontier_item list)
    ~(delta_new : unit Tuple.Table.t) :
    (Bindings.t * (Tuple.t * Value.t option) list) list =
  (* A SeNDlog `At S:` context binds its principal variable to the
     executing node's principal; a constant context only fires at the
     named principal. *)
  let init =
    match (rule.rule_context, self) with
    | None, _ -> [ (Bindings.empty, []) ]
    | Some (T_binop _ | T_app _), _ ->
      (* A compound At-context has no principal to bind; treating it
         as "fires everywhere" would silently run the rule outside any
         security context.  [Ndlog.Analysis] rejects this statically;
         this guards programs that bypass analysis. *)
      raise
        (Rule_error
           (Printf.sprintf
              "rule %s: At-context must be a principal variable or constant, \
               not a compound expression"
              rule.rule_name))
    | Some (T_var v), Some p -> (
      match Bindings.bind v p Bindings.empty with
      | Some b -> [ (b, []) ]
      | None -> [])
    | Some (T_const c), Some p ->
      if Value.equal (Value.of_const c) p then [ (Bindings.empty, []) ] else []
    | Some (T_var _ | T_const _), None -> [ (Bindings.empty, []) ]
  in
  (* Evaluation order: the delta literal first — its tuple binds the
     join variables, so the remaining literals are fetched through
     selective index probes instead of the unselective scans a
     left-to-right walk would start with.  Join solutions are
     order-independent (unification is commutative; conditions and
     assignments still run after every source-order literal to their
     left, only with more variables bound).  Each matched tuple is
     tagged with its source position and the body list re-sorted at
     the end, so provenance expressions and derivation-dedup keys see
     one canonical order for all delta passes. *)
  let numbered =
    let i = ref (-1) in
    List.map
      (fun lit ->
        match lit with
        | L_pred { negated = false; _ } ->
          incr i;
          (lit, !i)
        | L_pred { negated = true; _ } | L_cond _ | L_assign _ -> (lit, -1))
      rule.rule_body
  in
  let ordered =
    match delta_at with
    | None -> numbered
    | Some k ->
      let delta_lit, others = List.partition (fun (_, idx) -> idx = k) numbered in
      delta_lit @ others
  in
  let rec go lits acc =
    match lits with
    | [] -> acc
    | (lit, pred_idx) :: rest -> (
      match lit with
      | L_pred { pred; says; negated = false } ->
        let use_delta = delta_at = Some pred_idx in
        let exclude_new =
          match delta_at with Some k -> pred_idx < k | None -> false
        in
        let acc' =
          List.concat_map
            (fun (b, body) ->
              let candidates =
                if use_delta then
                  (* Skip stale frontier entries: a keyed relation may
                     have replaced a tuple after it entered the
                     frontier (e.g. a better bestPathCost arrived in
                     the same round); joining against the dead tuple
                     would resurrect superseded derivations. *)
                  List.filter_map
                    (fun fi ->
                      if fi.f_tuple.Tuple.rel = pred.name && Db.mem db fi.f_tuple then
                        Some (fi.f_tuple, [ fi.f_asserter ])
                      else None)
                    delta
                else begin
                  let cands = indexed_candidates db pred b in
                  if exclude_new then
                    List.filter
                      (fun (t, _) -> not (Tuple.Table.mem delta_new t))
                      cands
                  else cands
                end
              in
              match_literal_tuples db pred says b candidates
              |> List.map (fun (b', tuple, asserter) ->
                     (b', (pred_idx, (tuple, asserter)) :: body)))
            acc
        in
        go rest acc'
      | L_pred { pred; says = _; negated = true } ->
        (* Negated literals have all their variables bound (binding
           order is checked statically), so this is usually an exact
           index probe rather than a relation scan. *)
        let acc' =
          List.filter
            (fun (b, _) ->
              not
                (List.exists
                   (fun (t, _) -> Option.is_some (Expr_eval.match_args b pred.args t))
                   (indexed_candidates db pred b)))
            acc
        in
        go rest acc'
      | L_cond (op, x, y) ->
        let acc' =
          List.filter
            (fun (b, _) ->
              try Expr_eval.eval_relop op (Expr_eval.eval b x) (Expr_eval.eval b y)
              with Expr_eval.Eval_error _ -> false)
            acc
        in
        go rest acc'
      | L_assign (v, e) ->
        let acc' =
          List.filter_map
            (fun (b, body) ->
              match Expr_eval.eval b e with
              | x -> (
                match Bindings.bind v x b with
                | Some b' -> Some (b', body)
                | None -> None)
              | exception Expr_eval.Eval_error _ -> None)
            acc
        in
        go rest acc')
  in
  List.map
    (fun (b, body) ->
      (b, List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) body)))
    (go ordered init)

let positive_pred_count (rule : rule) : int =
  List.length
    (List.filter
       (function L_pred { negated = false; _ } -> true | _ -> false)
       rule.rule_body)

(* --- head construction ---------------------------------------------- *)

(* Build the head tuple and its destination address under [bindings].
   NDlog heads are addressed by the @-marked argument; SeNDlog heads by
   [export_to], defaulting to the local context. *)
let instantiate_head (rule : rule) (bindings : Bindings.t) : Tuple.t * string option =
  let head = rule.rule_head in
  let arg_value = function
    | H_term t -> Expr_eval.eval bindings t
    | H_agg ((A_min | A_max), v) -> Bindings.find_exn v bindings
    | H_agg ((A_count | A_sum), _) ->
      raise (Rule_error "COUNT/SUM heads are recomputed, not instantiated")
  in
  let args = Array.of_list (List.map arg_value head.head_args) in
  let tuple = Tuple.of_array head.head_pred args in
  let dest =
    match head.export_to with
    | Some t -> Some (Value.to_addr (Expr_eval.eval bindings t))
    | None -> (
      match head.head_loc with
      | Some i -> Some (Value.to_addr args.(i))
      | None -> None)
  in
  (tuple, dest)

(* --- COUNT / SUM recomputation -------------------------------------- *)

let is_recomputed_agg (rule : rule) : bool =
  match head_agg rule.rule_head with
  | Some (_, (A_count | A_sum), _) -> true
  | Some (_, (A_min | A_max), _) | None -> false

(* Recompute a COUNT/SUM rule over the full database: group complete
   body matches by the non-aggregate head arguments and produce one
   tuple per group. *)
let recompute_agg_rule (db : Db.t) ~(self : Value.t option) (rule : rule) :
    (Tuple.t * string option * (Tuple.t * Value.t option) list) list =
  match head_agg rule.rule_head with
  | None | Some (_, (A_min | A_max), _) -> []
  | Some (agg_idx, fn, agg_var) ->
    let matches = eval_body db rule ~self ~delta_at:None ~delta:[] ~delta_new:no_delta_new in
    let groups : (Value.t list, Value.t list * (Tuple.t * Value.t option) list) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun (b, body) ->
        let group_args =
          List.filteri (fun i _ -> i <> agg_idx) rule.rule_head.head_args
          |> List.map (function
               | H_term t -> Expr_eval.eval b t
               | H_agg _ -> raise (Rule_error "multiple aggregates in head"))
        in
        let v = Bindings.find_exn agg_var b in
        let prev_vals, prev_body =
          Option.value (Hashtbl.find_opt groups group_args) ~default:([], [])
        in
        (* Count distinct witness values, per Datalog set semantics. *)
        let vals =
          if List.exists (Value.equal v) prev_vals then prev_vals else v :: prev_vals
        in
        Hashtbl.replace groups group_args (vals, prev_body @ body))
      matches;
    Hashtbl.fold
      (fun group_args (vals, body) acc ->
        let agg_value =
          match fn with
          | A_count -> Value.V_int (List.length vals)
          | A_sum ->
            List.fold_left
              (fun acc v ->
                match (acc, v) with
                | Value.V_int a, Value.V_int b -> Value.V_int (a + b)
                | Value.V_float a, Value.V_float b -> Value.V_float (a +. b)
                | Value.V_int a, Value.V_float b -> Value.V_float (float_of_int a +. b)
                | Value.V_float a, Value.V_int b -> Value.V_float (a +. float_of_int b)
                | _ -> raise (Rule_error "SUM over non-numeric values"))
              (Value.V_int 0) vals
          | A_min | A_max -> assert false
        in
        (* Re-insert the aggregate value at its head position. *)
        let rec insert_at i l =
          if i = agg_idx then agg_value :: l
          else
            match l with
            | [] -> [ agg_value ]
            | x :: rest -> x :: insert_at (i + 1) rest
        in
        let args = Array.of_list (insert_at 0 group_args) in
        let tuple = Tuple.of_array rule.rule_head.head_pred args in
        let dest =
          match rule.rule_head.head_loc with
          | Some i -> Some (Value.to_addr args.(i))
          | None -> None
        in
        (tuple, dest, body) :: acc)
      groups []

(* --- the fixpoint ---------------------------------------------------- *)

(* Insert [tuple] and, when it is a derived head ([deriv]) that the
   relation's replace policy did not reject, report the derivation:
   provenance is captured only for tuples that go live, and before
   [on_replace] hears of the incumbent the new head displaced. *)
let insert_reporting (db : Db.t) ~(now : float) ?(asserted_by : Value.t option)
    ~(on_replace : Tuple.t -> unit) ~(on_derive : derivation -> unit)
    ?(deriv : derivation option) (tuple : Tuple.t) : Db.insert_result =
  let r = Db.insert db ~now ?asserted_by tuple in
  (match (r, deriv) with Db.Rejected, _ | _, None -> () | _, Some d -> on_derive d);
  (match r with Db.Replaced old -> on_replace old | _ -> ());
  r

(* [run_fixpoint db ~now ~rules ~local ~self_principal ~pending ~on_derive]
   inserts [pending] and applies [rules] to a local fixpoint.

   - [local]: this node's address; derived tuples addressed elsewhere
     become [emit]s.  [None] runs single-site (everything local).
   - [self_principal]: the asserting principal recorded for locally
     derived tuples (SeNDlog context; [None] in plain NDlog).
   - [support]: when given, every derivation found (including heads
     rejected by a replace policy and heads emitted elsewhere) is
     recorded in the support graph for later incremental deletion.
   - [on_replace] fires with the evicted incumbent whenever a keyed
     insert replaces a tuple, so the caller can retire its provenance.
   - [seeded] are frontier items whose tuples the caller has *already
     inserted* (the retraction pass re-inserts re-derived tuples
     itself); they join the first round's delta without the
     insert-and-filter step applied to [pending].
   - [on_derive] fires for every derivation whose head is inserted
     locally and not rejected by a replace policy, after the insert —
     re-derivations of existing tuples included, so the caller can
     accumulate alternative provenance (Plus in the semiring).  Heads
     emitted elsewhere are returned as [emit]s instead. *)
let run_fixpoint (db : Db.t) ~(now : float) ~(rules : rule list)
    ~(local : string option) ?(self_principal : Value.t option)
    ?(support : Support.t option) ?(on_replace = fun (_ : Tuple.t) -> ())
    ?(seeded : frontier_item list = [])
    ~(pending : frontier_item list) ~(on_derive : derivation -> unit) () : emit list =
  let rounds = ref 0 and derivations = ref 0 and inserted = ref 0 in
  let reg = Obs.Metrics.default in
  let rule_counter =
    let cache = Hashtbl.create 8 in
    fun name ->
      match Hashtbl.find_opt cache name with
      | Some c -> c
      | None ->
        let c = Obs.Metrics.counter reg ~labels:[ ("rule", name) ] "eval.rule_derivations" in
        Hashtbl.replace cache name c;
        c
  in
  let emits = ref [] in
  (* --- per-rule profiler ------------------------------------------
     Every per-rule evaluation pass is timed (wall clock) and the
     global index counters are snapshotted around it, attributing
     probes/hits to the rule that issued them.  The deltas accumulate
     locally and flush to labeled series at fixpoint exit, so the
     per-pass overhead is two [gettimeofday]s and four int reads.
     Under the sharded engine several fixpoints interleave on
     the same global counters, so probe/hit attribution is approximate
     there; wall time stays accurate per rule. *)
  let c_probes = Obs.Metrics.counter reg "db.index_probes" in
  let c_hits = Obs.Metrics.counter reg "db.index_hits" in
  let profile : (string, float ref * int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let profile_cell name =
    match Hashtbl.find_opt profile name with
    | Some cell -> cell
    | None ->
      let cell = (ref 0.0, ref 0, ref 0, ref 0) in
      Hashtbl.add profile name cell;
      cell
  in
  let profiled (rule : rule) (f : unit -> 'a) : 'a =
    let t0 = Unix.gettimeofday () in
    let p0 = Obs.Metrics.value c_probes and h0 = Obs.Metrics.value c_hits in
    let r = f () in
    let secs, rounds, probes, hits = profile_cell rule.rule_name in
    secs := !secs +. (Unix.gettimeofday () -. t0);
    incr rounds;
    probes := !probes + (Obs.Metrics.value c_probes - p0);
    hits := !hits + (Obs.Metrics.value c_hits - h0);
    r
  in
  let flush_profile () =
    Hashtbl.iter
      (fun name (secs, rounds, probes, hits) ->
        let labels = [ ("rule", name) ] in
        Obs.Metrics.observe (Obs.Metrics.histogram reg ~labels "eval.rule_seconds") !secs;
        Obs.Metrics.inc ~by:!rounds (Obs.Metrics.counter reg ~labels "eval.rule_rounds");
        if !probes > 0 then
          Obs.Metrics.inc ~by:!probes
            (Obs.Metrics.counter reg ~labels "eval.rule_index_probes");
        if !hits > 0 then
          Obs.Metrics.inc ~by:!hits
            (Obs.Metrics.counter reg ~labels "eval.rule_index_hits"))
      profile
  in
  let agg_rules, plain_rules = List.partition is_recomputed_agg rules in
  (* Frontier entries carry whether the insert introduced a *new
     tuple* (Added/Replaced) as opposed to a new asserter of an
     existing one; only new tuples are excluded from pre-delta join
     positions by the semi-naive ordering. *)
  let insert_local ?deriv tuple asserter =
    let r =
      insert_reporting db ~now ?asserted_by:asserter ~on_replace ~on_derive ?deriv tuple
    in
    if Db.result_is_new r then begin
      let fresh = match r with Db.Added | Db.Replaced _ -> true | _ -> false in
      Some ({ f_tuple = tuple; f_asserter = asserter }, fresh)
    end
    else None
  in
  (* Insert the initial pending tuples; [seeded] ones are already in. *)
  let frontier =
    ref
      (List.map (fun fi -> (fi, true)) seeded
      @ List.filter_map (fun fi -> insert_local fi.f_tuple fi.f_asserter) pending)
  in
  (* Derivations already reported this round, keyed on the support
     graph's derivation identity (rule, head, destination,
     body-with-asserters).  The delta-position ordering prevents most
     duplicates; this catches the remainder (e.g. several new
     asserters of existing tuples in one round) so [on_derive] fires
     exactly once per distinct derivation.  The key's hash combines
     the tuples' stored hashes, and the same key is what [Support]
     records. *)
  let round_seen : unit Support.Entry_tbl.t = Support.Entry_tbl.create 256 in
  let delta_new : unit Tuple.Table.t = Tuple.Table.create 64 in
  let process_derivation rule_name (tuple, dest, body) next_frontier =
    let is_local = match (dest, local) with
      | None, _ -> true
      | Some _, None -> true
      | Some d, Some l -> String.equal d l
    in
    let key =
      Support.entry ~rule:rule_name ~head:tuple
        ~dest:(if is_local then None else dest)
        ~body
    in
    if Support.Entry_tbl.mem round_seen key then next_frontier
    else begin
      Support.Entry_tbl.add round_seen key ();
      incr derivations;
      Obs.Metrics.inc (rule_counter rule_name);
      let deriv = { d_rule = rule_name; d_head = tuple; d_body = body } in
      (* Record the support edge unconditionally — even for heads a
         replace policy rejects, so a beaten candidate can be
         reinstated if the incumbent is later retracted. *)
      Option.iter (fun s -> Support.record s key) support;
      if is_local then begin
        match insert_local ~deriv tuple self_principal with
        | Some fi ->
          incr inserted;
          fi :: next_frontier
        | None -> next_frontier
      end
      else begin
        (match dest with
        | Some d -> emits := { e_dest = d; e_tuple = tuple; e_deriv = deriv } :: !emits
        | None -> ());
        next_frontier
      end
    end
  in
  while !frontier <> [] do
    incr rounds;
    let delta = List.map fst !frontier in
    Tuple.Table.reset delta_new;
    List.iter
      (fun (fi, fresh) -> if fresh then Tuple.Table.replace delta_new fi.f_tuple ())
      !frontier;
    Support.Entry_tbl.reset round_seen;
    let next = ref [] in
    (* Plain (and MIN/MAX) rules: one pass per positive body literal
       seeded from the delta. *)
    List.iter
      (fun rule ->
        profiled rule (fun () ->
            let npreds = positive_pred_count rule in
            for i = 0 to npreds - 1 do
              let results =
                eval_body db rule ~self:self_principal ~delta_at:(Some i) ~delta
                  ~delta_new
              in
              List.iter
                (fun (b, body) ->
                  match instantiate_head rule b with
                  | head -> (
                    let tuple, dest = head in
                    next := process_derivation rule.rule_name (tuple, dest, body) !next)
                  | exception Expr_eval.Eval_error _ -> ())
                results
            done))
      plain_rules;
    (* COUNT/SUM rules: full recomputation. *)
    List.iter
      (fun rule ->
        profiled rule (fun () ->
            let results = recompute_agg_rule db ~self:self_principal rule in
            List.iter
              (fun (tuple, dest, body) ->
                next := process_derivation rule.rule_name (tuple, dest, body) !next)
              results))
      agg_rules;
    frontier := !next
  done;
  flush_profile ();
  Obs.Metrics.inc ~by:!rounds (Obs.Metrics.counter reg "eval.rounds");
  Obs.Metrics.inc ~by:!derivations (Obs.Metrics.counter reg "eval.derivations");
  Obs.Metrics.inc ~by:!inserted (Obs.Metrics.counter reg "eval.inserted");
  List.rev !emits

(* --- incremental deletion (DRed) ------------------------------------- *)

(* Outcome of a retraction pass, for the caller's bookkeeping:
   - [rr_deleted]: previously-live local tuples now dead (their
     provenance should be retired to the offline store);
   - [rr_remote_dead]: heads emitted to another node that have lost
     every local derivation (the destination should be told to
     retract them);
   - [rr_invalidated]: support records removed because a body tuple
     died (the corresponding provenance alternative can be trimmed);
   - [rr_emits]: tuples (re-)derived for other nodes during the
     propagation fixpoint. *)
type retract_result = {
  rr_deleted : Tuple.t list;
  rr_remote_dead : (string * Tuple.t) list;
  rr_invalidated : derivation list;
  rr_emits : emit list;
}

(* [retract db ~support ~lost ...] implements delete-and-rederive
   (DRed) over the recorded support graph:

   1. Over-delete: the closure of [lost] under "is a body tuple of a
      recorded derivation" is removed from the database.  This is an
      over-approximation — a dependent may well have other
      derivations — which is what makes the pass sound in the
      presence of cycles (a tuple supported only by a cycle through
      the deleted set must not survive).
   2. Re-derive: over-deleted tuples (plus previously rejected
      candidates of any keyed group that lost a tuple) are reinstated
      when they still have external support ([external_support]: base
      facts, remote senders) or a recorded derivation whose body
      tuples are all live again.  The check iterates to a fixpoint so
      chains of dependents are restored without re-running any rule.
   3. COUNT/SUM heads are recomputed from scratch (their recorded
      supports describe historical witness sets, not current groups).
   4. Everything reinstated or recomputed seeds a normal semi-naive
      fixpoint, which finds any genuinely new consequences (e.g. a
      previously beaten alternative now winning a MIN group) and the
      emits for other nodes.

   Limitation (documented in DESIGN.md §10): rules with negated body
   literals are not re-fired for tuples whose negated literal became
   true by deletion; none of the shipped programs combines negation
   with soft-state churn. *)
let retract (db : Db.t) ~(support : Support.t) ~(now : float)
    ~(rules : rule list) ~(local : string option)
    ?(self_principal : Value.t option) ?(on_replace = fun (_ : Tuple.t) -> ())
    ~(lost : Tuple.t list)
    ~(external_support : Tuple.t -> Value.t option list)
    ~(on_derive : derivation -> unit) () : retract_result =
  let agg_rules = List.filter is_recomputed_agg rules in
  let agg_rels =
    List.sort_uniq String.compare
      (List.map (fun (r : rule) -> r.rule_head.head_pred) agg_rules)
  in
  let is_agg_rel rel = List.mem rel agg_rels in
  (* Identity of a tuple's keyed group, or None for set relations:
     the tuple of its relation's key columns. *)
  let group_key (tup : Tuple.t) : Tuple.t option =
    match Db.policy db tup.Tuple.rel with
    | Db.Set -> None
    | Db.Replace { key; _ } ->
      Option.map
        (fun vs -> Tuple.make tup.Tuple.rel vs)
        (Tuple.key_opt tup key)
  in
  (* --- phase 1: over-delete closure --------------------------------- *)
  (* [overdeleted] maps each reachable tuple to [Some asserters] if it
     was live when visited (captured for faithful reinstatement), or
     [None] for heads that were never in the local store (emitted or
     policy-rejected heads). *)
  let overdeleted : Value.t list option Tuple.Table.t = Tuple.Table.create 64 in
  let queue = Queue.create () in
  List.iter (fun t -> Queue.add t queue) lost;
  while not (Queue.is_empty queue) do
    let tup = Queue.pop queue in
    if not (Tuple.Table.mem overdeleted tup) then begin
      let asserters =
        if Db.mem db tup then Some (Db.asserters_of db tup) else None
      in
      Tuple.Table.replace overdeleted tup asserters;
      List.iter
        (fun (e : Support.entry) -> Queue.add e.sp_head queue)
        (Support.dependents_of support tup)
    end
  done;
  Tuple.Table.iter
    (fun tup live -> if live <> None then Db.remove db tup)
    overdeleted;
  (* Keyed groups left with no live winner: previously rejected
     candidates of these groups become reinstatement candidates below.
     Groups whose winner survives (the common forward-displacement
     case: a better aggregate value replaced the old one) are skipped —
     a beaten candidate can never beat the live incumbent, and the
     skip keeps the per-relation head scan off the hot path. *)
  let affected_groups : unit Tuple.Table.t = Tuple.Table.create 16 in
  let affected_rels : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  Tuple.Table.iter
    (fun tup live ->
      if live <> None && Option.is_none (Db.incumbent_of db tup) then
        match group_key tup with
        | Some g ->
          Tuple.Table.replace affected_groups g ();
          Hashtbl.replace affected_rels tup.Tuple.rel ()
        | None -> ())
    overdeleted;
  (* --- phase 2: reinstatement fixpoint ------------------------------ *)
  let candidates : Value.t list option Tuple.Table.t = Tuple.Table.create 64 in
  Tuple.Table.iter (fun tup live -> Tuple.Table.replace candidates tup live)
    overdeleted;
  if Tuple.Table.length affected_groups > 0 then
    Hashtbl.iter
      (fun rel () ->
        Support.iter_heads_of_rel support rel (fun h ->
            if
              (not (Tuple.Table.mem candidates h))
              && not (Db.mem db h)
            then
              match group_key h with
              | Some g when Tuple.Table.mem affected_groups g ->
                Tuple.Table.replace candidates h None
              | Some _ | None -> ()))
      affected_rels;
  let valid (e : Support.entry) =
    List.for_all (fun (b, _) -> Db.mem db b) e.Support.sp_body
  in
  let tried : unit Tuple.Table.t = Tuple.Table.create 32 in
  let seeded = ref [] in
  let push_seed tuple asserter =
    seeded := { f_tuple = tuple; f_asserter = asserter } :: !seeded
  in
  (* Insert [tuple] (reporting [deriv] if it goes live); true when it
     is live afterwards. *)
  let reinsert ?deriv tuple asserters =
    let one asserter =
      match
        insert_reporting db ~now ?asserted_by:asserter ~on_replace ~on_derive ?deriv tuple
      with
      | Db.Rejected -> false
      | _ -> true
    in
    match asserters with
    | [] -> one None
    | l -> List.fold_left (fun acc a -> one a || acc) false l
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Tuple.Table.iter
      (fun tup was_live ->
        if
          (not (Tuple.Table.mem tried tup))
          && (not (Db.mem db tup))
          && not (is_agg_rel tup.Tuple.rel)
        then begin
          let entries = Support.entries_of support tup in
          let local_valid =
            List.filter (fun e -> e.Support.sp_dest = None && valid e) entries
          in
          let ext = external_support tup in
          if ext <> [] || local_valid <> [] then begin
            Tuple.Table.replace tried tup ();
            changed := true;
            match was_live with
            | Some saved ->
              (* Restore the tuple as it was; a fresh TTL window is the
                 refresh-on-rederive semantics a from-scratch run would
                 apply.  Dependents revive through their own recorded
                 entries, so no frontier seeding is needed. *)
              ignore (reinsert tup (List.map Option.some saved))
            | None ->
              (* Never live here before (beaten candidate): replay its
                 surviving derivations so provenance and downstream
                 consequences are built exactly as a forward run
                 would. *)
              let live =
                List.fold_left
                  (fun acc (e : Support.entry) ->
                    let deriv = { d_rule = e.sp_rule; d_head = tup; d_body = e.sp_body } in
                    let l = reinsert ~deriv tup [ self_principal ] in
                    acc || l)
                  false local_valid
              in
              let live =
                if ext <> [] then begin
                  let l = reinsert tup ext in
                  if l then List.iter (fun a -> push_seed tup a) ext;
                  l || live
                end
                else live
              in
              if live then push_seed tup self_principal
          end
        end)
      candidates
  done;
  (* --- phase 3: COUNT/SUM recomputation ----------------------------- *)
  let extra_emits = ref [] in
  if agg_rules <> [] && Tuple.Table.length overdeleted > 0 then
    List.iter
      (fun (rule : rule) ->
        List.iter
          (fun (tuple, dest, body) ->
            let is_local =
              match (dest, local) with
              | None, _ | Some _, None -> true
              | Some d, Some l -> String.equal d l
            in
            let deriv = { d_rule = rule.rule_name; d_head = tuple; d_body = body } in
            Support.record support
              (Support.entry ~rule:rule.rule_name ~head:tuple
                 ~dest:(if is_local then None else dest)
                 ~body);
            if is_local then begin
              let r =
                insert_reporting db ~now ?asserted_by:self_principal ~on_replace
                  ~on_derive ~deriv tuple
              in
              if Db.result_is_new r then push_seed tuple self_principal
            end
            else
              match dest with
              | Some d ->
                extra_emits :=
                  { e_dest = d; e_tuple = tuple; e_deriv = deriv } :: !extra_emits
              | None -> ())
          (recompute_agg_rule db ~self:self_principal rule))
      agg_rules;
  (* --- phase 4: settle the dead, trim the support graph ------------- *)
  let dead : unit Tuple.Table.t = Tuple.Table.create 32 in
  Tuple.Table.iter
    (fun tup _ -> if not (Db.mem db tup) then Tuple.Table.replace dead tup ())
    candidates;
  (* Remote copies to notify: a (head, dest) pair is dead when no
     surviving entry for that destination is valid.  Collected before
     trimming, while the invalid entries still carry their dests. *)
  let check_remote : unit Tuple.Addr_table.t = Tuple.Addr_table.create 16 in
  let note_remote (e : Support.entry) =
    match e.Support.sp_dest with
    | Some d -> Tuple.Addr_table.replace check_remote (d, e.sp_head) ()
    | None -> ()
  in
  Tuple.Table.iter
    (fun tup () ->
      List.iter note_remote (Support.dependents_of support tup);
      List.iter note_remote (Support.entries_of support tup))
    dead;
  let remote_dead =
    Tuple.Addr_table.fold
      (fun (d, tup) () acc ->
        let still =
          List.exists
            (fun (e : Support.entry) -> e.Support.sp_dest = Some d && valid e)
            (Support.entries_of support tup)
        in
        if still then acc else (d, tup) :: acc)
      check_remote []
    |> List.sort (fun (d1, t1) (d2, t2) ->
           match String.compare d1 d2 with
           | 0 -> String.compare (Tuple.identity t1) (Tuple.identity t2)
           | c -> c)
  in
  (* Trim: every record consuming a dead tuple, and every now-invalid
     record of a dead head, leaves the graph; the caller uses the list
     to drop the matching provenance alternatives. *)
  let invalidated = ref [] in
  let trim (e : Support.entry) =
    if Support.mem_entry support e then begin
      Support.remove_entry support e;
      invalidated :=
        { d_rule = e.sp_rule; d_head = e.sp_head; d_body = e.sp_body }
        :: !invalidated
    end
  in
  Tuple.Table.iter
    (fun tup () ->
      List.iter trim (Support.dependents_of support tup);
      List.iter
        (fun (e : Support.entry) -> if not (valid e) then trim e)
        (Support.entries_of support tup))
    dead;
  let deleted =
    Tuple.Table.fold
      (fun tup was_live acc ->
        match was_live with
        | Some _ when not (Db.mem db tup) -> tup :: acc
        | Some _ | None -> acc)
      candidates []
    |> List.sort (fun a b -> String.compare (Tuple.identity a) (Tuple.identity b))
  in
  (* --- phase 5: propagate ------------------------------------------- *)
  let emits =
    if !seeded = [] then []
    else
      run_fixpoint db ~now ~rules ~local ?self_principal ~support ~on_replace
        ~seeded:!seeded ~pending:[] ~on_derive ()
  in
  { rr_deleted = deleted;
    rr_remote_dead = remote_dead;
    rr_invalidated = !invalidated;
    rr_emits = List.rev !extra_emits @ emits }

(* Single-site convenience used by tests and the quickstart example:
   run a whole program (facts + rules) to fixpoint in one database,
   ignoring distribution. *)
let run_single_site ?(on_derive = fun _ -> ()) (program : program) : Db.t =
  let db = Db.create () in
  Db.configure_from_program db program;
  let pending =
    List.map
      (fun (f : fact) ->
        { f_tuple =
            Tuple.of_array f.fact_pred
              (Array.of_list (List.map Value.of_const f.fact_args));
          f_asserter = None })
      (facts program)
  in
  let emits =
    run_fixpoint db ~now:0.0 ~rules:(rules program) ~local:None ~pending ~on_derive ()
  in
  (if emits <> [] then begin
     let dests =
       List.sort_uniq String.compare (List.map (fun e -> e.e_dest) emits)
     in
     raise
       (Rule_error
          (Printf.sprintf
             "run_single_site: %d derived tuple(s) are addressed to other nodes \
              (%s); location-specified programs need the distributed runtime \
              (Core.Runtime), not the single-site evaluator"
             (List.length emits) (String.concat ", " dests)))
   end);
  db
