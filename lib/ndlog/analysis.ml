(* Static analysis of NDlog / SeNDlog programs.

   Checks performed before a program is accepted for execution:
   - *safety / range restriction*: every head variable is bound by a
     positive body predicate or an assignment;
   - *sideways binding order*: conditions, assignments and negated
     predicates only read variables bound by literals to their left
     (the evaluator executes bodies left-to-right, as P2 does);
   - *location well-formedness*: in NDlog mode every predicate carries
     a location specifier and it is a variable or constant (never a
     compound expression);
   - *stratification*: recursion through negation is rejected;
     recursion through MIN/MAX aggregates is allowed (they converge
     monotonically under replace semantics, which is how P2 runs
     Best-Path); recursion through COUNT/SUM is rejected. *)

open Ast

type error = {
  err_rule : string;
  err_msg : string;
}

let show_error e = Printf.sprintf "rule %s: %s" e.err_rule e.err_msg

let errors_to_string errs = String.concat "\n" (List.map show_error errs)

(* --- per-rule checks ------------------------------------------------ *)

let check_binding_order (r : rule) : error list =
  let err msg = { err_rule = r.rule_name; err_msg = msg } in
  let bound = Hashtbl.create 16 in
  let is_bound v = Hashtbl.mem bound v in
  let bind v = Hashtbl.replace bound v () in
  (* The rule context principal (SeNDlog) is bound from the start. *)
  (match r.rule_context with
  | Some t -> List.iter bind (term_vars t)
  | None -> ());
  let errs = ref [] in
  List.iter
    (fun lit ->
      (match lit with
      | L_pred { negated = false; _ } -> ()
      | L_pred { negated = true; _ } | L_cond _ ->
        List.iter
          (fun v ->
            if not (is_bound v) then
              errs :=
                err (Printf.sprintf "variable %s used before being bound" v)
                :: !errs)
          (literal_vars lit)
      | L_assign (_, t) ->
        List.iter
          (fun v ->
            if not (is_bound v) then
              errs :=
                err (Printf.sprintf "variable %s used before being bound" v)
                :: !errs)
          (term_vars t));
      List.iter bind (literal_binds lit))
    r.rule_body;
  (* Head safety: every head variable must now be bound. *)
  List.iter
    (fun v ->
      if not (is_bound v) then
        errs := err (Printf.sprintf "head variable %s is unbound (unsafe rule)" v) :: !errs)
    (head_vars r.rule_head);
  List.rev !errs

(* A SeNDlog [At S:] context names the executing principal: it must be
   a variable (bound to the local principal) or a constant address.  A
   compound expression has no principal to bind — the evaluator raises
   [Rule_error] on it, and we reject it here before execution. *)
let check_context (r : rule) : error list =
  match r.rule_context with
  | None | Some (T_var _) | Some (T_const _) -> []
  | Some (T_binop _ | T_app _) ->
    [ { err_rule = r.rule_name;
        err_msg = "At-context must be a principal variable or constant, not a \
                   compound expression" } ]

let check_aggregates (r : rule) : error list =
  let err msg = { err_rule = r.rule_name; err_msg = msg } in
  let aggs =
    List.filter_map
      (function H_agg (fn, v) -> Some (fn, v) | H_term _ -> None)
      r.rule_head.head_args
  in
  if List.length aggs > 1 then [ err "at most one aggregate per head is supported" ]
  else []

let location_term_ok = function
  | T_var _ | T_const (C_str _) -> true
  | T_const _ | T_binop _ | T_app _ -> false

let check_locations ~(sendlog : bool) (r : rule) : error list =
  let err msg = { err_rule = r.rule_name; err_msg = msg } in
  let errs = ref [] in
  if not sendlog then begin
    (* NDlog: every predicate occurrence needs an @ specifier. *)
    List.iter
      (function
        | L_pred { pred; _ } when pred.loc = None ->
          errs :=
            err (Printf.sprintf "predicate %s lacks a location specifier" pred.name)
            :: !errs
        | L_pred { pred; _ } -> (
          match pred.loc with
          | Some i when i < List.length pred.args ->
            if not (location_term_ok (List.nth pred.args i)) then
              errs :=
                err
                  (Printf.sprintf "location specifier of %s must be a variable or address"
                     pred.name)
                :: !errs
          | _ -> ())
        | L_cond _ | L_assign _ -> ())
      r.rule_body;
    if r.rule_head.head_loc = None && r.rule_head.export_to = None then
      errs := err "head lacks a location specifier" :: !errs
  end;
  List.rev !errs

(* --- stratification ------------------------------------------------- *)

type edge_kind = E_plain | E_negated | E_nonmonotone_agg

(* Dependency edges head <- body predicate. *)
let dependency_edges (p : program) : (string * string * edge_kind) list =
  List.concat_map
    (fun r ->
      let head = r.rule_head.head_pred in
      let head_kind =
        match head_agg r.rule_head with
        | Some (_, (A_count | A_sum), _) -> E_nonmonotone_agg
        | Some (_, (A_min | A_max), _) | None -> E_plain
      in
      List.filter_map
        (function
          | L_pred { pred; negated; _ } ->
            let kind = if negated then E_negated else head_kind in
            Some (head, pred.name, kind)
          | L_cond _ | L_assign _ -> None)
        r.rule_body)
    (rules p)

(* Reject cycles that pass through a negated or non-monotone edge:
   for each such edge (h, b), check whether b can reach h. *)
let check_stratification (p : program) : error list =
  let edges = dependency_edges p in
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (h, b, _) ->
      let cur = Option.value (Hashtbl.find_opt adj h) ~default:[] in
      Hashtbl.replace adj h (b :: cur))
    edges;
  let reaches src dst =
    let seen = Hashtbl.create 16 in
    let rec go v =
      if v = dst then true
      else if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        List.exists go (Option.value (Hashtbl.find_opt adj v) ~default:[])
      end
    in
    go src
  in
  List.filter_map
    (fun (h, b, kind) ->
      match kind with
      | E_plain -> None
      | E_negated ->
        if reaches b h then
          Some
            { err_rule = h;
              err_msg = Printf.sprintf "unstratified negation through %s" b }
        else None
      | E_nonmonotone_agg ->
        if reaches b h then
          Some
            { err_rule = h;
              err_msg =
                Printf.sprintf "recursive COUNT/SUM aggregate through %s" b }
        else None)
    edges

(* --- entry points --------------------------------------------------- *)

let check_program ?(sendlog = false) (p : program) : error list =
  let per_rule =
    List.concat_map
      (fun r ->
        check_binding_order r @ check_context r @ check_aggregates r
        @ check_locations ~sendlog r)
      (rules p)
  in
  per_rule @ check_stratification p

(* All predicate names a program defines (heads and facts) or reads. *)
let predicates (p : program) : string list =
  let names = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s with
      | S_rule r ->
        Hashtbl.replace names r.rule_head.head_pred ();
        List.iter
          (function
            | L_pred { pred; _ } -> Hashtbl.replace names pred.name ()
            | L_cond _ | L_assign _ -> ())
          r.rule_body
      | S_fact f -> Hashtbl.replace names f.fact_pred ()
      | S_directive _ -> ())
    p.statements;
  Hashtbl.fold (fun k () acc -> k :: acc) names [] |> List.sort String.compare

(* Base (extensional) predicates: read but never derived. *)
let base_predicates (p : program) : string list =
  let derived = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace derived r.rule_head.head_pred ()) (rules p);
  List.filter (fun n -> not (Hashtbl.mem derived n)) (predicates p)
