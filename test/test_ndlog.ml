(* Tests for the NDlog / SeNDlog language frontend: lexer, parser,
   pretty-printer roundtrip, static analysis, localization. *)

open Ndlog

let parse = Parser.parse_program_exn

(* --- lexer ---------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "r1 p(@S, D) :- q(S), X := 1 + 2, X < 3." in
  let kinds = List.map (fun (l : Lexer.lexed) -> l.tok) toks in
  Alcotest.(check bool) "has implies" true (List.mem Lexer.IMPLIES kinds);
  Alcotest.(check bool) "has assign" true (List.mem Lexer.ASSIGN kinds);
  Alcotest.(check bool) "has at" true (List.mem Lexer.AT kinds);
  Alcotest.(check bool) "ends with eof" true (List.exists (( = ) Lexer.EOF) kinds)

let test_lexer_comments () =
  let toks = Lexer.tokenize "// line comment\n/* block\ncomment */ p(a)." in
  let idents =
    List.filter_map
      (fun (l : Lexer.lexed) -> match l.tok with Lexer.IDENT s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "only code survives" [ "p"; "a" ] idents

let test_lexer_numbers () =
  let toks = Lexer.tokenize "p(1, 2.5, -3)." in
  let has t = List.exists (fun (l : Lexer.lexed) -> l.tok = t) toks in
  Alcotest.(check bool) "int" true (has (Lexer.INT 1));
  Alcotest.(check bool) "float" true (has (Lexer.FLOAT 2.5));
  (* 3. at end of statement must lex as INT 3 then PERIOD *)
  let toks2 = Lexer.tokenize "p(3)." in
  Alcotest.(check bool) "int then period" true
    (List.exists (fun (l : Lexer.lexed) -> l.tok = Lexer.INT 3) toks2)

let test_lexer_strings_and_errors () =
  let toks = Lexer.tokenize {|p("hello world\n").|} in
  Alcotest.(check bool) "string literal" true
    (List.exists (fun (l : Lexer.lexed) -> l.tok = Lexer.STRING "hello world\n") toks);
  Alcotest.(check bool) "unterminated string" true
    (match Lexer.tokenize "p(\"oops" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad char" true
    (match Lexer.tokenize "p(a) & q(b)" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false)

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "p(a).\n\nq(b)." in
  let q_line =
    List.find_map
      (fun (l : Lexer.lexed) -> if l.tok = Lexer.IDENT "q" then Some l.line else None)
      toks
  in
  Alcotest.(check (option int)) "q on line 3" (Some 3) q_line

(* --- parser ---------------------------------------------------------- *)

let test_parse_paper_reachable () =
  let p = parse Programs.reachable_src in
  let rules = Ast.rules p in
  Alcotest.(check int) "two rules" 2 (List.length rules);
  let r1 = List.hd rules in
  Alcotest.(check string) "name" "r1" r1.rule_name;
  Alcotest.(check string) "head" "reachable" r1.rule_head.head_pred;
  Alcotest.(check (option int)) "head loc" (Some 0) r1.rule_head.head_loc

let test_parse_sendlog_context () =
  let p = parse Programs.sendlog_reachable_src in
  let rules = Ast.rules p in
  Alcotest.(check int) "three rules" 3 (List.length rules);
  List.iter
    (fun (r : Ast.rule) ->
      Alcotest.(check bool) "in context S" true (r.rule_context = Some (Ast.T_var "S")))
    rules;
  (* s2 exports to @D *)
  let s2 = List.nth rules 1 in
  Alcotest.(check bool) "export" true (s2.rule_head.export_to = Some (Ast.T_var "D"));
  (* s3 has two says literals *)
  let s3 = List.nth rules 2 in
  let says_count =
    List.length
      (List.filter
         (function Ast.L_pred { says = Some _; _ } -> true | _ -> false)
         s3.rule_body)
  in
  Alcotest.(check int) "two says" 2 says_count

let test_parse_aggregates () =
  let p = parse "p1 best(@S, D, a_MIN<C>) :- path(@S, D, C)." in
  match Ast.rules p with
  | [ r ] -> (
    match Ast.head_agg r.rule_head with
    | Some (2, Ast.A_min, "C") -> ()
    | _ -> Alcotest.fail "expected MIN aggregate at position 2")
  | _ -> Alcotest.fail "expected one rule"

let test_parse_facts () =
  let p = parse {|link(@a, b, 1). link(@b, c, 2). cost(@a, 3.5). flag(@a, true).|} in
  let facts = Ast.facts p in
  Alcotest.(check int) "four facts" 4 (List.length facts);
  let f = List.hd facts in
  Alcotest.(check string) "pred" "link" f.fact_pred;
  Alcotest.(check (option int)) "loc" (Some 0) f.fact_loc;
  Alcotest.(check bool) "args" true
    (f.fact_args = [ Ast.C_str "a"; Ast.C_str "b"; Ast.C_int 1 ])

let test_parse_directives () =
  let p =
    parse "#ttl link 30.\n#key best 0,1.\n#key top 0 max 2.\n#watch alarm.\np(@a)."
  in
  let ds = Ast.directives p in
  Alcotest.(check int) "four directives" 4 (List.length ds);
  Alcotest.(check bool) "ttl" true (List.mem (Ast.D_ttl ("link", 30.0)) ds);
  Alcotest.(check bool) "key" true
    (List.mem (Ast.D_key ("best", [ 0; 1 ], Ast.K_last)) ds);
  Alcotest.(check bool) "key with preference" true
    (List.mem (Ast.D_key ("top", [ 0 ], Ast.K_max 2)) ds);
  Alcotest.(check bool) "watch" true (List.mem (Ast.D_watch "alarm") ds)

let test_parse_expressions () =
  let p = parse "r x(@S, C) :- y(@S, A, B), C := (A + B) * 2 - A % 3, C != 0." in
  match Ast.rules p with
  | [ r ] ->
    Alcotest.(check int) "three body literals" 3 (List.length r.rule_body)
  | _ -> Alcotest.fail "one rule expected"

let test_parse_negation () =
  let p = parse "r x(@S) :- y(@S, Z), not z(@S, Z)." in
  match Ast.rules p with
  | [ r ] ->
    let negs =
      List.filter (function Ast.L_pred { negated = true; _ } -> true | _ -> false) r.rule_body
    in
    Alcotest.(check int) "one negated" 1 (List.length negs)
  | _ -> Alcotest.fail "one rule expected"

let test_parse_errors () =
  let bad = [ "p(@a" (* unclosed *); "p(@a) :- ." (* empty body elem *); "p(@X)." (* var in fact *) ] in
  List.iter
    (fun src ->
      Alcotest.(check bool) src true
        (match Parser.parse_program src with
        | exception Parser.Parse_error _ -> true
        | exception Lexer.Lex_error _ -> true
        | _ -> false))
    bad

(* --- pretty-printer roundtrip ------------------------------------------ *)

let test_pretty_roundtrip_library () =
  List.iter
    (fun (name, src) ->
      let p1 = parse src in
      let printed = Pretty.program_to_string p1 in
      let p2 = parse printed in
      Alcotest.(check string) name printed (Pretty.program_to_string p2))
    Programs.all

let test_pretty_idempotent () =
  let src = "r1 p(@S, D, a_COUNT<T>) :- q(@S, D, T), T >= 3, not r(@S, D)." in
  let once = Pretty.program_to_string (parse src) in
  let twice = Pretty.program_to_string (parse once) in
  Alcotest.(check string) "fixed point" once twice

(* --- analysis ------------------------------------------------------------- *)

let errors_of ?sendlog src = Analysis.check_program ?sendlog (parse src)

let test_analysis_accepts_library () =
  List.iter
    (fun (name, src) ->
      let sendlog = String.length name >= 7 && String.sub name 0 7 = "sendlog" in
      Alcotest.(check (list string)) name []
        (List.map Analysis.show_error (errors_of ~sendlog src)))
    Programs.all

let test_analysis_unsafe_head () =
  Alcotest.(check bool) "unbound head var" true
    (errors_of "r p(@S, D) :- q(@S)." <> [])

let test_analysis_unbound_condition () =
  Alcotest.(check bool) "condition before binding" true
    (errors_of "r p(@S) :- X > 3, q(@S, X)." <> [])

let test_analysis_missing_location () =
  Alcotest.(check bool) "missing @ in NDlog" true
    (errors_of "r p(@S) :- q(S)." <> []);
  Alcotest.(check (list string)) "ok in sendlog mode" []
    (List.map Analysis.show_error
       (errors_of ~sendlog:true "At S:\nr p(S) :- q(S)."))

let test_analysis_unstratified_negation () =
  let src = "r1 p(@S) :- q(@S), not p(@S)." in
  Alcotest.(check bool) "negative self-cycle" true
    (List.exists
       (fun (e : Analysis.error) ->
         String.length e.err_msg >= 12 && String.sub e.err_msg 0 12 = "unstratified")
       (errors_of src))

let test_analysis_recursive_count () =
  let src = "r1 c(@S, a_COUNT<X>) :- e(@S, X), c(@S, Y)." in
  Alcotest.(check bool) "recursive count rejected" true
    (List.exists
       (fun (e : Analysis.error) ->
         String.length e.err_msg >= 9 && String.sub e.err_msg 0 9 = "recursive")
       (errors_of src));
  (* recursive MIN is fine (Best-Path) *)
  Alcotest.(check (list string)) "recursive min ok" []
    (List.map Analysis.show_error (errors_of Programs.best_path_src))

let test_analysis_negated_unbound () =
  Alcotest.(check bool) "negation needs bound vars" true
    (errors_of "r p(@S) :- not q(@S, X), r2(@S)." <> [])

let test_analysis_compound_context () =
  (* An At-context must name a principal; a compound expression has
     none to bind, so analysis rejects it before the evaluator does. *)
  Alcotest.(check bool) "compound At-context rejected" true
    (List.exists
       (fun (e : Analysis.error) ->
         String.length e.err_msg >= 10 && String.sub e.err_msg 0 10 = "At-context")
       (errors_of ~sendlog:true "At S + S:\nr1 p(S) :- q(S)."));
  Alcotest.(check (list string)) "variable context fine" []
    (List.map Analysis.show_error (errors_of ~sendlog:true "At S:\nr1 p(S) :- q(S)."))

(* The example program the CLI docs run is the library's Best-Path,
   not a copy that can drift from it (e.g. lose the witness
   tie-break). *)
let test_example_best_path () =
  let src = In_channel.with_open_bin "../examples/best_path.ndlog" In_channel.input_all in
  Alcotest.(check bool) "examples/best_path.ndlog = Programs.best_path" true
    (Ast.equal_program (parse src) (Programs.best_path ()))

let test_base_predicates () =
  let p = parse Programs.best_path_src in
  Alcotest.(check (list string)) "base" [ "link" ] (Analysis.base_predicates p)

(* --- localization ----------------------------------------------------------- *)

let test_localize_reachable () =
  let p = Localize.localize_program (parse Programs.reachable_src) in
  let rules = Ast.rules p in
  Alcotest.(check int) "three rules after rewrite" 3 (List.length rules);
  Alcotest.(check bool) "all localized" true (List.for_all Localize.is_localized rules);
  (* the helper ships to @Z *)
  let helper = List.find (fun (r : Ast.rule) -> r.rule_name = "r2_l0") rules in
  Alcotest.(check string) "helper name" "r2_mid0" helper.rule_head.head_pred

let test_localize_already_local () =
  let p = parse "r p(@S, D) :- q(@S, D), s(@S, D)." in
  let lp = Localize.localize_program p in
  Alcotest.(check int) "unchanged" 1 (List.length (Ast.rules lp))

let test_localize_three_sites () =
  (* a chain across three locations localizes with two helpers *)
  let p = parse "r t(@S, W) :- a(@S, Z), b(@Z, W), c(@W, S)." in
  let lp = Localize.localize_program p in
  Alcotest.(check bool) "all localized" true
    (List.for_all Localize.is_localized (Ast.rules lp));
  Alcotest.(check int) "three rules" 3 (List.length (Ast.rules lp))

let test_localize_not_routable () =
  (* the remote location variable is not bound by the local prefix *)
  let p = parse "r t(@S) :- a(@S), b(@Z, S)." in
  Alcotest.(check bool) "not localizable" true
    (match Localize.localize_program p with
    | exception Localize.Not_localizable _ -> true
    | _ -> false)

let test_localize_preserves_conditions () =
  let p = parse "r t(@S, C) :- a(@S, Z, C1), b(@Z, C2), C := C1 + C2, C < 10." in
  let lp = Localize.localize_program p in
  let final = List.find (fun (r : Ast.rule) -> r.rule_head.head_pred = "t") (Ast.rules lp) in
  let conds =
    List.length
      (List.filter
         (function Ast.L_cond _ | Ast.L_assign _ -> true | _ -> false)
         final.rule_body)
  in
  Alcotest.(check int) "conditions kept" 2 conds;
  (* and the rewritten program still passes analysis *)
  Alcotest.(check (list string)) "analysis ok" []
    (List.map Analysis.show_error (Analysis.check_program lp))

(* --- semantic equivalence of the localization ------------------------------ *)

let single_site_results program rel =
  let db = Engine.Eval.run_single_site program in
  Engine.Db.tuples_of db rel |> List.map Engine.Tuple.to_string |> List.sort compare

let test_localize_semantics_preserved () =
  (* reachability over a fixed graph gives identical results before
     and after the rewrite (single-site evaluation) *)
  let facts = "link(@a, b). link(@b, c). link(@c, d). link(@a, d)." in
  let p = parse (Programs.reachable_src ^ facts) in
  let lp = Localize.localize_program p in
  Alcotest.(check (list string)) "same reachable set"
    (single_site_results p "reachable")
    (single_site_results lp "reachable")

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer numbers" `Quick test_lexer_numbers;
    Alcotest.test_case "lexer strings/errors" `Quick test_lexer_strings_and_errors;
    Alcotest.test_case "lexer line numbers" `Quick test_lexer_line_numbers;
    Alcotest.test_case "parse paper reachable" `Quick test_parse_paper_reachable;
    Alcotest.test_case "parse sendlog contexts" `Quick test_parse_sendlog_context;
    Alcotest.test_case "parse aggregates" `Quick test_parse_aggregates;
    Alcotest.test_case "parse facts" `Quick test_parse_facts;
    Alcotest.test_case "parse directives" `Quick test_parse_directives;
    Alcotest.test_case "parse expressions" `Quick test_parse_expressions;
    Alcotest.test_case "parse negation" `Quick test_parse_negation;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "pretty roundtrip (library)" `Quick test_pretty_roundtrip_library;
    Alcotest.test_case "pretty idempotent" `Quick test_pretty_idempotent;
    Alcotest.test_case "analysis accepts library" `Quick test_analysis_accepts_library;
    Alcotest.test_case "analysis: unsafe head" `Quick test_analysis_unsafe_head;
    Alcotest.test_case "analysis: unbound condition" `Quick test_analysis_unbound_condition;
    Alcotest.test_case "analysis: missing location" `Quick test_analysis_missing_location;
    Alcotest.test_case "analysis: unstratified negation" `Quick test_analysis_unstratified_negation;
    Alcotest.test_case "analysis: recursive count" `Quick test_analysis_recursive_count;
    Alcotest.test_case "analysis: negation binding" `Quick test_analysis_negated_unbound;
    Alcotest.test_case "analysis: compound At-context" `Quick test_analysis_compound_context;
    Alcotest.test_case "analysis: base predicates" `Quick test_base_predicates;
    Alcotest.test_case "example best_path.ndlog is the library's" `Quick test_example_best_path;
    Alcotest.test_case "localize reachable" `Quick test_localize_reachable;
    Alcotest.test_case "localize no-op" `Quick test_localize_already_local;
    Alcotest.test_case "localize three sites" `Quick test_localize_three_sites;
    Alcotest.test_case "localize unroutable" `Quick test_localize_not_routable;
    Alcotest.test_case "localize keeps conditions" `Quick test_localize_preserves_conditions;
    Alcotest.test_case "localize preserves semantics" `Quick test_localize_semantics_preserved ]
