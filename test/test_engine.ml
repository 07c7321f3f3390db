(* Tests for the Datalog engine: values, tuples, the store with
   replace policies and soft state, expression evaluation, and the
   semi-naive fixpoint (checked against reference algorithms). *)

open Engine

let parse = Ndlog.Parser.parse_program_exn

let v_str s = Value.V_str s
let v_int i = Value.V_int i

let results db rel = Db.tuples_of db rel |> List.map Tuple.to_string |> List.sort compare

let run_src src = Eval.run_single_site (parse src)

(* --- values ------------------------------------------------------------ *)

let test_value_compare_total () =
  let vs =
    [ v_int 1; v_int 2; Value.V_float 1.5; Value.V_bool true; v_str "a";
      Value.V_list [ v_int 1 ]; Value.V_list [] ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) "antisymmetric" (Value.compare a b) (-Value.compare b a))
        vs)
    vs;
  (* numeric cross-type comparison *)
  Alcotest.(check int) "int vs float equal" 0 (Value.compare (v_int 2) (Value.V_float 2.0))

let test_value_hash_consistent () =
  let a = Value.V_list [ v_int 1; v_str "x" ] in
  let b = Value.V_list [ v_int 1; v_str "x" ] in
  Alcotest.(check bool) "equal implies same hash" true
    ((not (Value.equal a b)) || Value.hash a = Value.hash b)

let test_value_to_string () =
  Alcotest.(check string) "list" "[a,1,true]"
    (Value.to_string (Value.V_list [ v_str "a"; v_int 1; Value.V_bool true ]))

(* --- tuples -------------------------------------------------------------- *)

let test_tuple_basics () =
  let t = Tuple.make "p" [ v_str "a"; v_int 3 ] in
  Alcotest.(check int) "arity" 2 (Tuple.arity t);
  Alcotest.(check string) "to_string" "p(a, 3)" (Tuple.to_string t);
  Alcotest.(check bool) "equal" true (Tuple.equal t (Tuple.make "p" [ v_str "a"; v_int 3 ]));
  Alcotest.(check bool) "differs by rel" false
    (Tuple.equal t (Tuple.make "q" [ v_str "a"; v_int 3 ]));
  Alcotest.(check (list string)) "key projection" [ "a" ]
    (List.map Value.to_string (Tuple.key_of t [ 0 ]))

(* --- db policies ------------------------------------------------------------ *)

let test_db_set_semantics () =
  let db = Db.create () in
  let t = Tuple.make "p" [ v_int 1 ] in
  Alcotest.(check bool) "added" true (Db.insert db ~now:0.0 t = Db.Added);
  Alcotest.(check bool) "refreshed" true (Db.insert db ~now:1.0 t = Db.Refreshed);
  Alcotest.(check int) "cardinal" 1 (Db.cardinal db "p")

let test_db_replace_min () =
  let db = Db.create () in
  Db.set_policy db "best" (Db.Replace { key = [ 0 ]; prefer = Db.P_min 1 });
  let mk k c = Tuple.make "best" [ v_str k; v_int c ] in
  Alcotest.(check bool) "first added" true (Db.insert db ~now:0.0 (mk "a" 10) = Db.Added);
  (match Db.insert db ~now:0.0 (mk "a" 5) with
  | Db.Replaced old -> Alcotest.(check string) "old returned" "best(a, 10)" (Tuple.to_string old)
  | _ -> Alcotest.fail "expected replacement");
  Alcotest.(check bool) "worse rejected" true (Db.insert db ~now:0.0 (mk "a" 7) = Db.Rejected);
  Alcotest.(check bool) "other key independent" true
    (Db.insert db ~now:0.0 (mk "b" 99) = Db.Added);
  Alcotest.(check (list string)) "final" [ "best(a, 5)"; "best(b, 99)" ] (results db "best")

let test_db_replace_last () =
  let db = Db.create () in
  Db.set_policy db "cnt" (Db.Replace { key = [ 0 ]; prefer = Db.P_last });
  let mk k c = Tuple.make "cnt" [ v_str k; v_int c ] in
  ignore (Db.insert db ~now:0.0 (mk "a" 1));
  ignore (Db.insert db ~now:0.0 (mk "a" 2));
  Alcotest.(check (list string)) "last wins" [ "cnt(a, 2)" ] (results db "cnt")

let test_db_ttl_eviction () =
  let db = Db.create () in
  Db.set_ttl db "soft" 5.0;
  let t1 = Tuple.make "soft" [ v_int 1 ] and t2 = Tuple.make "soft" [ v_int 2 ] in
  ignore (Db.insert db ~now:0.0 t1);
  ignore (Db.insert db ~now:3.0 t2);
  Alcotest.(check (list string)) "nothing at t=4" []
    (List.map Tuple.to_string (Db.evict_expired db ~now:4.0));
  let evicted = Db.evict_expired db ~now:6.0 in
  Alcotest.(check (list string)) "t1 evicted" [ "soft(1)" ] (List.map Tuple.to_string evicted);
  Alcotest.(check int) "t2 alive" 1 (Db.cardinal db "soft");
  (* refresh extends the lifetime *)
  ignore (Db.insert db ~now:7.0 t2);
  Alcotest.(check int) "no eviction after refresh" 0
    (List.length (Db.evict_expired db ~now:9.0))

let test_db_set_ttl_semantics () =
  let db = Db.create () in
  let t1 = Tuple.make "soft" [ v_int 1 ] in
  ignore (Db.insert db ~now:0.0 t1);
  (* a TTL set after insertion does NOT apply to live tuples *)
  Db.set_ttl db "soft" 5.0;
  Alcotest.(check int) "pre-existing tuple immortal" 0
    (List.length (Db.evict_expired db ~now:100.0));
  (* future inserts get the TTL *)
  let t2 = Tuple.make "soft" [ v_int 2 ] in
  ignore (Db.insert db ~now:100.0 t2);
  Alcotest.(check (list string)) "new tuple expires" [ "soft(2)" ]
    (List.map Tuple.to_string (Db.evict_expired db ~now:106.0))

let test_db_refresh_on_rederive () =
  let db = Db.create () in
  Db.set_ttl db "soft" 5.0;
  let t = Tuple.make "soft" [ v_int 1 ] in
  (* P2 semantics: re-derivation extends the lifetime *)
  ignore (Db.insert db ~now:0.0 t);
  ignore (Db.insert db ~now:4.0 t);
  Alcotest.(check int) "refreshed past original expiry" 0
    (List.length (Db.evict_expired db ~now:6.0));
  Alcotest.(check (list string)) "expires from the refresh" [ "soft(1)" ]
    (List.map Tuple.to_string (Db.evict_expired db ~now:9.5))

let test_db_asserters () =
  let db = Db.create () in
  let t = Tuple.make "p" [ v_int 1 ] in
  Alcotest.(check bool) "added" true (Db.insert db ~now:0.0 ~asserted_by:(v_str "alice") t = Db.Added);
  Alcotest.(check bool) "new asserter" true
    (Db.insert db ~now:0.0 ~asserted_by:(v_str "bob") t = Db.New_asserter);
  Alcotest.(check bool) "repeat asserter" true
    (Db.insert db ~now:0.0 ~asserted_by:(v_str "bob") t = Db.Refreshed);
  Alcotest.(check int) "two asserters" 2 (List.length (Db.asserters_of db t))

let test_db_remove () =
  let db = Db.create () in
  Db.set_policy db "k" (Db.Replace { key = [ 0 ]; prefer = Db.P_last });
  let t = Tuple.make "k" [ v_int 1; v_int 2 ] in
  ignore (Db.insert db ~now:0.0 t);
  Db.remove db t;
  Alcotest.(check int) "gone" 0 (Db.cardinal db "k");
  (* the by-key index is cleaned: re-insert works *)
  Alcotest.(check bool) "reinsert" true (Db.insert db ~now:0.0 t = Db.Added)

(* --- expression evaluation ---------------------------------------------------- *)

let eval_term bindings src =
  (* parse a term by wrapping it in a rule *)
  let p = parse (Printf.sprintf "r p(@S, X) :- q(@S), X := %s." src) in
  match Ndlog.Ast.rules p with
  | [ { rule_body = [ _; Ndlog.Ast.L_assign (_, term) ]; _ } ] ->
    Expr_eval.eval bindings term
  | _ -> Alcotest.fail "bad term wrapper"

let test_expr_arithmetic () =
  let b = Bindings.of_list [ ("A", v_int 7); ("B", v_int 2) ] in
  Alcotest.(check string) "add" "9" (Value.to_string (eval_term b "A + B"));
  Alcotest.(check string) "precedence" "11" (Value.to_string (eval_term b "A + B * 2"));
  Alcotest.(check string) "div" "3" (Value.to_string (eval_term b "A / B"));
  Alcotest.(check string) "mod" "1" (Value.to_string (eval_term b "A % B"));
  Alcotest.(check bool) "div by zero" true
    (match eval_term b "A / 0" with
    | exception Expr_eval.Eval_error _ -> true
    | _ -> false)

let test_expr_builtins () =
  let b = Bindings.of_list [ ("S", v_str "a"); ("D", v_str "b") ] in
  let path = eval_term b "f_init(S, D)" in
  Alcotest.(check string) "f_init" "[a,b]" (Value.to_string path);
  let b2 = Bindings.of_list [ ("P", path); ("X", v_str "z") ] in
  Alcotest.(check string) "f_concat" "[z,a,b]" (Value.to_string (eval_term b2 "f_concat(X, P)"));
  Alcotest.(check string) "f_append" "[a,b,z]" (Value.to_string (eval_term b2 "f_append(P, X)"));
  Alcotest.(check string) "f_member yes" "true" (Value.to_string (eval_term b2 "f_member(P, \"a\")"));
  Alcotest.(check string) "f_member no" "false" (Value.to_string (eval_term b2 "f_member(P, X)"));
  Alcotest.(check string) "f_size" "2" (Value.to_string (eval_term b2 "f_size(P)"));
  Alcotest.(check string) "f_first" "a" (Value.to_string (eval_term b2 "f_first(P)"));
  Alcotest.(check string) "f_last" "b" (Value.to_string (eval_term b2 "f_last(P)"));
  Alcotest.(check string) "f_min" "1" (Value.to_string (eval_term Bindings.empty "f_min(1, 2)"));
  Alcotest.(check string) "f_max" "2" (Value.to_string (eval_term Bindings.empty "f_max(1, 2)"))

let test_match_args () =
  let t = Tuple.make "p" [ v_str "a"; v_int 3 ] in
  let pattern = [ Ndlog.Ast.T_var "X"; Ndlog.Ast.T_var "Y" ] in
  (match Expr_eval.match_args Bindings.empty pattern t with
  | Some b ->
    Alcotest.(check bool) "X bound" true (Bindings.find "X" b = Some (v_str "a"))
  | None -> Alcotest.fail "match expected");
  (* repeated variable must unify *)
  let t2 = Tuple.make "p" [ v_str "a"; v_str "a" ] in
  let rep = [ Ndlog.Ast.T_var "X"; Ndlog.Ast.T_var "X" ] in
  Alcotest.(check bool) "same value unifies" true
    (Expr_eval.match_args Bindings.empty rep t2 <> None);
  Alcotest.(check bool) "different values fail" true
    (Expr_eval.match_args Bindings.empty rep t = None)

(* --- fixpoint: reachability vs reference transitive closure ----------------- *)

let reference_closure edges =
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let reach = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.replace reach (a, b) ()) edges;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            List.iter
              (fun c ->
                if Hashtbl.mem reach (a, b) && Hashtbl.mem reach (b, c)
                   && not (Hashtbl.mem reach (a, c)) then begin
                  Hashtbl.replace reach (a, c) ();
                  changed := true
                end)
              nodes)
          nodes)
      nodes
  done;
  Hashtbl.fold (fun (a, b) () acc -> Printf.sprintf "reachable(%s, %s)" a b :: acc) reach []
  |> List.sort compare

let test_fixpoint_reachable_small () =
  let edges = [ ("a", "b"); ("b", "c"); ("c", "a"); ("c", "d") ] in
  let facts =
    String.concat "\n" (List.map (fun (a, b) -> Printf.sprintf "link(@%s, %s)." a b) edges)
  in
  let db = run_src (Ndlog.Programs.reachable_src ^ facts) in
  Alcotest.(check (list string)) "matches reference" (reference_closure edges)
    (results db "reachable")

let prop_fixpoint_reachable_random =
  QCheck.Test.make ~name:"reachable = reference closure" ~count:40
    QCheck.(small_list (pair (int_bound 5) (int_bound 5)))
    (fun raw_edges ->
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b) ->
               if a = b then None
               else Some (Printf.sprintf "v%d" a, Printf.sprintf "v%d" b))
             raw_edges)
      in
      QCheck.assume (edges <> []);
      let facts =
        String.concat "\n"
          (List.map (fun (a, b) -> Printf.sprintf "link(@%s, %s)." a b) edges)
      in
      let db = run_src (Ndlog.Programs.reachable_src ^ facts) in
      results db "reachable" = reference_closure edges)

(* --- fixpoint: best path vs dijkstra ------------------------------------------ *)

let dijkstra nodes edges src =
  let dist = Hashtbl.create 16 in
  Hashtbl.replace dist src 0;
  let visited = Hashtbl.create 16 in
  let rec loop () =
    let best =
      List.fold_left
        (fun acc n ->
          if Hashtbl.mem visited n then acc
          else
            match Hashtbl.find_opt dist n with
            | None -> acc
            | Some d -> ( match acc with Some (_, d') when d' <= d -> acc | _ -> Some (n, d)))
        None nodes
    in
    match best with
    | None -> ()
    | Some (u, du) ->
      Hashtbl.replace visited u ();
      List.iter
        (fun (a, b, c) ->
          if a = u then
            match Hashtbl.find_opt dist b with
            | Some old when old <= du + c -> ()
            | _ -> Hashtbl.replace dist b (du + c))
        edges;
      loop ()
  in
  loop ();
  dist

let check_best_path_against_dijkstra edges =
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b, _) -> [ a; b ]) edges) in
  let facts =
    String.concat "\n"
      (List.map (fun (a, b, c) -> Printf.sprintf "link(@%s, %s, %d)." a b c) edges)
  in
  let db = run_src (Ndlog.Programs.best_path_src ^ facts) in
  let got = Hashtbl.create 16 in
  Db.iter_rel db "bestPath" (fun t ->
      match (Tuple.arg t 0, Tuple.arg t 1, Tuple.arg t 3) with
      | Value.V_str s, Value.V_str d, Value.V_int c -> Hashtbl.replace got (s, d) c
      | _ -> ());
  List.for_all
    (fun src ->
      let dist = dijkstra nodes edges src in
      List.for_all
        (fun dst ->
          if dst = src then true
          else
            match (Hashtbl.find_opt dist dst, Hashtbl.find_opt got (src, dst)) with
            | None, None -> true
            | Some d, Some g -> d = g
            | _ -> false)
        nodes)
    nodes

let test_best_path_simple () =
  Alcotest.(check bool) "diamond graph" true
    (check_best_path_against_dijkstra
       [ ("a", "b", 1); ("b", "c", 1); ("a", "c", 5); ("c", "d", 1); ("b", "d", 10) ])

let prop_best_path_random =
  QCheck.Test.make ~name:"bestPath = dijkstra" ~count:25
    QCheck.(small_list (triple (int_bound 4) (int_bound 4) (int_range 1 9)))
    (fun raw ->
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b, c) ->
               if a = b then None
               else Some (Printf.sprintf "v%d" a, Printf.sprintf "v%d" b, c))
             raw)
      in
      (* drop duplicate (src,dst) pairs with different costs: keep min *)
      let edges =
        List.fold_left
          (fun acc (a, b, c) ->
            match List.assoc_opt (a, b) acc with
            | Some c' when c' <= c -> acc
            | _ -> ((a, b), c) :: List.remove_assoc (a, b) acc)
          [] edges
        |> List.map (fun ((a, b), c) -> (a, b, c))
      in
      QCheck.assume (edges <> []);
      check_best_path_against_dijkstra edges)

(* --- aggregates ------------------------------------------------------------------ *)

let test_count_aggregate () =
  let db =
    run_src
      {|
m1 cnt(@S, a_COUNT<T>) :- ev(@S, T).
ev(@a, 1). ev(@a, 2). ev(@a, 2). ev(@b, 5).
|}
  in
  (* distinct T values per group *)
  Alcotest.(check (list string)) "counts" [ "cnt(a, 2)"; "cnt(b, 1)" ] (results db "cnt")

let test_sum_aggregate () =
  let db =
    run_src
      {|
m1 total(@S, a_SUM<T>) :- ev(@S, T).
ev(@a, 1). ev(@a, 2). ev(@b, 5).
|}
  in
  Alcotest.(check (list string)) "sums" [ "total(a, 3)"; "total(b, 5)" ] (results db "total")

let test_max_aggregate () =
  let db =
    run_src
      {|
m1 hi(@S, a_MAX<T>) :- ev(@S, T).
ev(@a, 1). ev(@a, 7). ev(@a, 3).
|}
  in
  Alcotest.(check (list string)) "max" [ "hi(a, 7)" ] (results db "hi")

let test_negation_stratified () =
  let db =
    run_src
      {|
r1 candidate(@S, D) :- edge(@S, D).
r2 blocked(@S, D) :- edge(@S, D), bad(@S, D).
r3 ok(@S, D) :- candidate(@S, D), not blocked(@S, D).
edge(@a, b). edge(@a, c). bad(@a, c).
|}
  in
  Alcotest.(check (list string)) "negation filters" [ "ok(a, b)" ] (results db "ok")

let test_says_matching () =
  (* a says literal binds its principal variable once per asserter
     delivered through the frontier *)
  let db = Db.create () in
  let t = Tuple.make "claim" [ v_str "x" ] in
  let p = parse "At Me:\nr out(W, X) :- W says claim(X)." in
  let deliver asserter =
    ignore
      (Eval.run_fixpoint db ~now:0.0 ~rules:(Ndlog.Ast.rules p) ~local:None
         ~self_principal:(v_str "me")
         ~pending:[ { Eval.f_tuple = t; f_asserter = Some (v_str asserter) } ]
         ~on_derive:(fun _ -> ())
         ())
  in
  deliver "alice";
  deliver "bob";
  deliver "carol";
  Alcotest.(check (list string)) "one binding per asserter"
    [ "out(alice, x)"; "out(bob, x)"; "out(carol, x)" ]
    (results db "out");
  (* an unasserted tuple never matches a says literal *)
  ignore
    (Eval.run_fixpoint db ~now:0.0 ~rules:(Ndlog.Ast.rules p) ~local:None
       ~self_principal:(v_str "me")
       ~pending:[ { Eval.f_tuple = Tuple.make "claim" [ v_str "y" ]; f_asserter = None } ]
       ~on_derive:(fun _ -> ())
       ());
  Alcotest.(check int) "unasserted ignored" 3 (Db.cardinal db "out")

let test_derivation_callback () =
  let derivs = ref [] in
  let p = parse (Ndlog.Programs.reachable_src ^ "link(@a, b). link(@b, c).") in
  let _db = Eval.run_single_site ~on_derive:(fun d -> derivs := d :: !derivs) p in
  (* r1 twice (two links), r2 via the chain *)
  Alcotest.(check bool) "r1 fired" true
    (List.exists (fun (d : Eval.derivation) -> d.d_rule = "r1") !derivs);
  Alcotest.(check bool) "r2 fired" true
    (List.exists (fun (d : Eval.derivation) -> d.d_rule = "r2") !derivs);
  let r2 = List.find (fun (d : Eval.derivation) -> d.d_rule = "r2") !derivs in
  Alcotest.(check int) "r2 body size" 2 (List.length r2.d_body)

let test_emits_remote () =
  (* with a local address set, tuples addressed elsewhere are emitted *)
  let p = Ndlog.Localize.localize_program (parse Ndlog.Programs.reachable_src) in
  let db = Db.create () in
  let link = Tuple.make "link" [ v_str "a"; v_str "b" ] in
  let emits =
    Eval.run_fixpoint db ~now:0.0 ~rules:(Ndlog.Ast.rules p) ~local:(Some "a")
      ~pending:[ { Eval.f_tuple = link; f_asserter = None } ]
      ~on_derive:(fun _ -> ())
      ()
  in
  (* r2_l0 ships r2_mid0(b, a) to b *)
  Alcotest.(check bool) "ships helper to b" true
    (List.exists
       (fun (e : Eval.emit) -> e.e_dest = "b" && e.e_tuple.Tuple.rel = "r2_mid0")
       emits);
  (* reachable(a,b) stays local *)
  Alcotest.(check bool) "local reachable" true (Db.mem db (Tuple.make "reachable" [ v_str "a"; v_str "b" ]))

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "value compare" `Quick test_value_compare_total;
    Alcotest.test_case "value hash" `Quick test_value_hash_consistent;
    Alcotest.test_case "value printing" `Quick test_value_to_string;
    Alcotest.test_case "tuple basics" `Quick test_tuple_basics;
    Alcotest.test_case "db set semantics" `Quick test_db_set_semantics;
    Alcotest.test_case "db replace min" `Quick test_db_replace_min;
    Alcotest.test_case "db replace last" `Quick test_db_replace_last;
    Alcotest.test_case "db ttl eviction" `Quick test_db_ttl_eviction;
    Alcotest.test_case "db set_ttl semantics" `Quick test_db_set_ttl_semantics;
    Alcotest.test_case "db refresh-on-rederive" `Quick test_db_refresh_on_rederive;
    Alcotest.test_case "db asserters" `Quick test_db_asserters;
    Alcotest.test_case "db remove" `Quick test_db_remove;
    Alcotest.test_case "expr arithmetic" `Quick test_expr_arithmetic;
    Alcotest.test_case "expr builtins" `Quick test_expr_builtins;
    Alcotest.test_case "pattern matching" `Quick test_match_args;
    Alcotest.test_case "reachable fixpoint" `Quick test_fixpoint_reachable_small;
    Alcotest.test_case "best path (diamond)" `Quick test_best_path_simple;
    Alcotest.test_case "COUNT aggregate" `Quick test_count_aggregate;
    Alcotest.test_case "SUM aggregate" `Quick test_sum_aggregate;
    Alcotest.test_case "MAX aggregate" `Quick test_max_aggregate;
    Alcotest.test_case "stratified negation" `Quick test_negation_stratified;
    Alcotest.test_case "says matching" `Quick test_says_matching;
    Alcotest.test_case "derivation callback" `Quick test_derivation_callback;
    Alcotest.test_case "remote emits" `Quick test_emits_remote ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_fixpoint_reachable_random; prop_best_path_random ]

(* --- ring builtins (Chord support) ------------------------------------- *)

let test_ring_builtins () =
  let b = Bindings.of_list [ ("K", v_int 5); ("A", v_int 3); ("B", v_int 8) ] in
  let check name src expected =
    Alcotest.(check string) name expected (Value.to_string (eval_term b src))
  in
  check "inside" "f_in_ring(K, A, B)" "true";
  check "boundary B inclusive" "f_in_ring(8, A, B)" "true";
  check "boundary A exclusive" "f_in_ring(3, A, B)" "false";
  check "outside" "f_in_ring(9, A, B)" "false";
  (* wrapped interval (B < A) *)
  check "wrap low" "f_in_ring(1, 8, 3)" "true";
  check "wrap high" "f_in_ring(9, 8, 3)" "true";
  check "wrap outside" "f_in_ring(5, 8, 3)" "false";
  (* degenerate interval = full ring *)
  check "full ring" "f_in_ring(5, 2, 2)" "true";
  (* ring distance *)
  check "dist forward" "f_ring_dist(3, 8, 16)" "5";
  check "dist wrap" "f_ring_dist(8, 3, 16)" "11";
  check "dist zero" "f_ring_dist(4, 4, 16)" "0"

let suite =
  suite @ [ Alcotest.test_case "ring builtins" `Quick test_ring_builtins ]

(* --- path-vector with import policies (the paper's BGP example) --------- *)

let pv_routes db =
  Db.tuples_of db "bestRoute" |> List.map Tuple.to_string |> List.sort compare

let test_path_vector_policy_open () =
  (* with a fully permissive policy, a line a-b-c routes end to end *)
  let src =
    Ndlog.Programs.path_vector_policy_src
    ^ {|
link(@a, b, 1). link(@b, c, 1). link(@b, a, 1). link(@c, b, 1).
acceptFrom(@a, b). acceptFrom(@b, a). acceptFrom(@b, c). acceptFrom(@c, b).
|}
  in
  let db = run_src src in
  Alcotest.(check bool) "a reaches c" true
    (List.mem "bestRoute(a, c, [a,b,c])" (pv_routes db));
  Alcotest.(check bool) "c reaches a" true
    (List.mem "bestRoute(c, a, [c,b,a])" (pv_routes db))

let test_path_vector_policy_filters () =
  (* c refuses imports from b: it never learns a route to a, while the
     reverse direction (a <- b <- c) still works *)
  let src =
    Ndlog.Programs.path_vector_policy_src
    ^ {|
link(@a, b, 1). link(@b, c, 1). link(@b, a, 1). link(@c, b, 1).
acceptFrom(@a, b). acceptFrom(@b, a). acceptFrom(@b, c).
|}
  in
  let db = run_src src in
  Alcotest.(check bool) "c has no route to a" false
    (List.exists
       (fun r -> String.length r >= 14 && String.sub r 0 14 = "bestRoute(c, a")
       (pv_routes db));
  Alcotest.(check bool) "a still reaches c" true
    (List.mem "bestRoute(a, c, [a,b,c])" (pv_routes db))

let test_path_vector_prefers_short_paths () =
  (* a direct link beats a two-hop detour under MIN path length *)
  let src =
    Ndlog.Programs.path_vector_policy_src
    ^ {|
link(@a, c, 1). link(@a, b, 1). link(@b, c, 1).
acceptFrom(@a, b). acceptFrom(@b, a). acceptFrom(@c, a). acceptFrom(@c, b).
|}
  in
  let db = run_src src in
  Alcotest.(check bool) "direct route wins" true
    (List.mem "bestRoute(a, c, [a,c])" (pv_routes db))

let suite =
  suite
  @ [ Alcotest.test_case "path-vector: open policy" `Quick test_path_vector_policy_open;
      Alcotest.test_case "path-vector: policy filters" `Quick test_path_vector_policy_filters;
      Alcotest.test_case "path-vector: shortest wins" `Quick test_path_vector_prefers_short_paths ]

(* Telemetry integration: a distributed best-path run must populate
   the shared metrics registry — the fixpoint layer records rounds and
   the wire layer records message counts, so both are nonzero after a
   run over a connected topology. *)
let test_run_emits_metrics () =
  Obs.Metrics.reset Obs.Metrics.default;
  let topo = Net.Topology.random (Crypto.Rng.create ~seed:7) ~n:6 () in
  let cfg = { Core.Config.ndlog with Core.Config.rsa_bits = 384 } in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:8) ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  let v name = Obs.Metrics.value (Obs.Metrics.counter Obs.Metrics.default name) in
  Alcotest.(check bool) "eval.rounds nonzero" true (v "eval.rounds" > 0);
  Alcotest.(check bool) "wire.messages nonzero" true (v "wire.messages" > 0)

let suite =
  suite
  @ [ Alcotest.test_case "run emits eval/wire metrics" `Quick test_run_emits_metrics ]

(* --- secondary indexes and semi-naive dedupe ----------------------------- *)

(* Direct probe API: buckets stay current across inserts, replaces and
   removals that happen after the index was lazily built. *)
let test_db_probe_maintenance () =
  let db = Db.create () in
  let mk k c = Tuple.make "e" [ v_str k; v_int c ] in
  List.iter (fun t -> ignore (Db.insert db ~now:0.0 t)) [ mk "a" 1; mk "a" 2; mk "b" 3 ];
  let probe k =
    Db.probe db "e" ~cols:[ 0 ] ~key:[ v_str k ]
    |> List.map Tuple.to_string |> List.sort compare
  in
  Alcotest.(check (list string)) "bucket a" [ "e(a, 1)"; "e(a, 2)" ] (probe "a");
  Db.remove db (mk "a" 1);
  Alcotest.(check (list string)) "remove maintained" [ "e(a, 2)" ] (probe "a");
  ignore (Db.insert db ~now:0.0 (mk "a" 9));
  Alcotest.(check (list string)) "insert maintained" [ "e(a, 2)"; "e(a, 9)" ] (probe "a");
  Alcotest.(check (list string)) "other bucket" [ "e(b, 3)" ] (probe "b");
  Alcotest.(check (list string)) "miss is empty" [] (probe "zz");
  (* replace policies keep at most one tuple per bucket *)
  Db.set_policy db "best" (Db.Replace { key = [ 0 ]; prefer = Db.P_min 1 });
  let bk k c = Tuple.make "best" [ v_str k; v_int c ] in
  ignore (Db.insert db ~now:0.0 (bk "x" 10));
  let probe_best k =
    Db.probe db "best" ~cols:[ 0 ] ~key:[ v_str k ] |> List.map Tuple.to_string
  in
  Alcotest.(check (list string)) "before replace" [ "best(x, 10)" ] (probe_best "x");
  ignore (Db.insert db ~now:0.0 (bk "x" 4));
  Alcotest.(check (list string)) "incumbent deindexed" [ "best(x, 4)" ] (probe_best "x")

(* Regression: a derivation whose body joins two tuples that entered
   the frontier in the same round must be found exactly once — the
   seed double-counted it, once per delta position. *)
let test_two_delta_join_counted_once () =
  let src = {|
j1 out(@X, Y) :- a(@X), b(@Y).
a(@x). b(@y).
|}
  in
  let count = ref 0 in
  let _db =
    Eval.run_single_site
      ~on_derive:(fun d -> if d.Eval.d_rule = "j1" then incr count)
      (parse src)
  in
  Alcotest.(check int) "one derivation from two frontier tuples" 1 !count

(* A keyed relation can replace a tuple after it entered the frontier;
   the dead tuple must not join (stale-frontier filter), and the
   replaced incumbent must be gone from the index the join probes. *)
let test_replace_stale_frontier_indexed () =
  let p = parse "r1 out(@X, C) :- best(@X, C), tag(@X)." in
  let db = Db.create () in
  Db.set_policy db "best" (Db.Replace { key = [ 0 ]; prefer = Db.P_min 1 });
  let pending =
    List.map
      (fun t -> { Eval.f_tuple = t; f_asserter = None })
      [ Tuple.make "tag" [ v_str "a" ];
        Tuple.make "best" [ v_str "a"; v_int 10 ];
        Tuple.make "best" [ v_str "a"; v_int 3 ] ]
  in
  ignore
    (Eval.run_fixpoint db ~now:0.0 ~rules:(Ndlog.Ast.rules p) ~local:None ~pending
       ~on_derive:(fun _ -> ())
       ());
  Alcotest.(check (list string)) "superseded tuple not resurrected" [ "out(a, 3)" ]
    (results db "out")

(* The indexed evaluator and the scan evaluator must compute the same
   fixpoint. *)
let test_index_onoff_equivalence () =
  let src =
    Ndlog.Programs.best_path_src
    ^ {|
link(@a, b, 1). link(@b, d, 1). link(@a, c, 5). link(@c, d, 1).
link(@b, a, 1). link(@d, b, 1). link(@c, a, 5). link(@d, c, 1).
|}
  in
  let run ~indexing =
    let p = parse src in
    let db = Db.create ~indexing () in
    Db.configure_from_program db p;
    let pending =
      List.map
        (fun (f : Ndlog.Ast.fact) ->
          { Eval.f_tuple =
              Tuple.of_array f.fact_pred
                (Array.of_list (List.map Value.of_const f.fact_args));
            f_asserter = None })
        (Ndlog.Ast.facts p)
    in
    ignore
      (Eval.run_fixpoint db ~now:0.0 ~rules:(Ndlog.Ast.rules p) ~local:None ~pending
         ~on_derive:(fun _ -> ())
         ());
    db
  in
  let indexed = run ~indexing:true and scanned = run ~indexing:false in
  List.iter
    (fun rel ->
      Alcotest.(check (list string))
        (rel ^ " identical") (results scanned rel) (results indexed rel))
    [ "bestPath"; "bestPathCost"; "path" ]

(* A compound At-context reaching the evaluator (bypassing analysis)
   raises Rule_error instead of silently running context-free. *)
let test_compound_context_rejected_eval () =
  Alcotest.check_raises "compound context"
    (Eval.Rule_error
       "rule r1: At-context must be a principal variable or constant, not a \
        compound expression")
    (fun () ->
      ignore (Eval.run_single_site (parse "q(@a).\nAt S + S:\nr1 p(S) :- q(S).")))

let suite =
  suite
  @ [ Alcotest.test_case "db probe maintenance" `Quick test_db_probe_maintenance;
      Alcotest.test_case "two-delta join counted once" `Quick test_two_delta_join_counted_once;
      Alcotest.test_case "replace + stale frontier (indexed)" `Quick
        test_replace_stale_frontier_indexed;
      Alcotest.test_case "index on/off equivalence" `Quick test_index_onoff_equivalence;
      Alcotest.test_case "compound At-context rejected" `Quick
        test_compound_context_rejected_eval ]
