(* Tests for the provenance layer: semiring laws, expression
   evaluation, condensation (the paper's Section 4.4 example),
   derivation trees (Figures 1-2), trust policies (Section 4.5). *)

open Provenance

(* --- expression generator --------------------------------------------- *)

let keys = [| "a"; "b"; "c"; "d" |]

let expr_gen : Prov_expr.t QCheck.arbitrary =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof
        [ map (fun i -> Prov_expr.Base keys.(i)) (int_bound (Array.length keys - 1));
          return Prov_expr.One;
          return Prov_expr.Zero ]
    else
      frequency
        [ (2, map (fun i -> Prov_expr.Base keys.(i)) (int_bound (Array.length keys - 1)));
          (2, map2 (fun a b -> Prov_expr.Plus (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> Prov_expr.Times (a, b)) (gen (depth - 1)) (gen (depth - 1))) ]
  in
  QCheck.make ~print:Prov_expr.to_string (gen 4)

(* all boolean assignments over the fixed key set *)
let assignments =
  List.init
    (1 lsl Array.length keys)
    (fun mask k ->
      let rec idx i = if keys.(i) = k then i else idx (i + 1) in
      mask land (1 lsl idx 0) <> 0)

(* --- semiring laws ------------------------------------------------------ *)

let semiring_laws (type a) name (module S : Semiring.S with type t = a)
    (gen : a QCheck.arbitrary) =
  [ QCheck.Test.make ~name:(name ^ ": plus commutative") ~count:100 (QCheck.pair gen gen)
      (fun (a, b) -> S.equal (S.plus a b) (S.plus b a));
    QCheck.Test.make ~name:(name ^ ": times commutative") ~count:100 (QCheck.pair gen gen)
      (fun (a, b) -> S.equal (S.times a b) (S.times b a));
    QCheck.Test.make ~name:(name ^ ": plus associative") ~count:100
      (QCheck.triple gen gen gen)
      (fun (a, b, c) -> S.equal (S.plus a (S.plus b c)) (S.plus (S.plus a b) c));
    QCheck.Test.make ~name:(name ^ ": times associative") ~count:100
      (QCheck.triple gen gen gen)
      (fun (a, b, c) -> S.equal (S.times a (S.times b c)) (S.times (S.times a b) c));
    QCheck.Test.make ~name:(name ^ ": identities") ~count:100 gen (fun a ->
        S.equal (S.plus S.zero a) a && S.equal (S.times S.one a) a
        && S.equal (S.times S.zero a) S.zero);
    QCheck.Test.make ~name:(name ^ ": distributivity") ~count:100
      (QCheck.triple gen gen gen)
      (fun (a, b, c) ->
        S.equal (S.times a (S.plus b c)) (S.plus (S.times a b) (S.times a c))) ]

let bool_gen = QCheck.bool
let count_gen = QCheck.int_bound 50
let level_gen = QCheck.oneofl [ min_int; 0; 1; 2; 3; max_int ]

let lineage_gen =
  QCheck.map
    (fun l ->
      match l with
      | None -> None
      | Some l -> Some (Semiring.String_set.of_list (List.map (fun i -> keys.(i)) l)))
    QCheck.(option (small_list (int_bound 3)))

let why_gen =
  QCheck.map
    (fun ll ->
      Semiring.String_set_set.of_list
        (List.map
           (fun l -> Semiring.String_set.of_list (List.map (fun i -> keys.(i)) l))
           ll))
    QCheck.(small_list (small_list (int_bound 3)))

let tropical_gen = QCheck.map float_of_int (QCheck.int_bound 100)

(* --- evaluation homomorphism ---------------------------------------------- *)

let prop_boolean_eval_matches_truth =
  (* evaluating in the boolean semiring = evaluating the formula *)
  QCheck.Test.make ~name:"boolean eval = truth table" ~count:200 expr_gen (fun e ->
      List.for_all
        (fun env ->
          let rec truth = function
            | Prov_expr.Zero -> false
            | Prov_expr.One -> true
            | Prov_expr.Base k -> env k
            | Prov_expr.Plus (a, b) -> truth a || truth b
            | Prov_expr.Times (a, b) -> truth a && truth b
          in
          Prov_expr.derivable_from e ~trusted:env = truth e)
        assignments)

let prop_condense_preserves_semantics =
  (* condensation preserves the boolean reading under every trust set *)
  QCheck.Test.make ~name:"condense preserves derivability" ~count:200 expr_gen (fun e ->
      let ctx = Condense.create_ctx () in
      let condensed, bdd = Condense.condense ctx e in
      List.for_all
        (fun env ->
          let direct = Prov_expr.derivable_from e ~trusted:env in
          Prov_expr.derivable_from condensed ~trusted:env = direct
          && Condense.accepts ctx bdd ~trusted:env = direct)
        assignments)

let prop_condense_no_larger =
  QCheck.Test.make ~name:"condensed never more keys" ~count:200 expr_gen (fun e ->
      let ctx = Condense.create_ctx () in
      let condensed, _ = Condense.condense ctx e in
      List.length (Prov_expr.bases condensed) <= List.length (Prov_expr.bases e))

let prop_bdd_wire_roundtrip =
  QCheck.Test.make ~name:"BDD wire roundtrip preserves semantics" ~count:200 expr_gen
    (fun e ->
      let ctx = Condense.create_ctx () in
      let ctx2 = Condense.create_ctx () in
      let decoded = Condense.of_wire ctx2 (Condense.to_wire ctx e) in
      List.for_all
        (fun env ->
          Prov_expr.derivable_from e ~trusted:env
          = Prov_expr.derivable_from decoded ~trusted:env)
        assignments)

(* Shipped provenance blocks are untrusted: whatever 1-3 changed bytes
   make of a condensed block, decoding returns an expression or raises
   [Wire_error]. *)
let prop_condensed_block_mutation =
  QCheck.Test.make ~name:"mutated condensed blocks raise only Wire_error" ~count:10_000
    (QCheck.pair expr_gen (QCheck.make Test_net.flips_gen))
    (fun (e, flips) ->
      let block = Test_net.mutate (Condense.to_wire (Condense.create_ctx ()) e) flips in
      match Condense.of_wire_slice (Condense.create_ctx ()) (Net.Arena.of_string block) with
      | (_ : Prov_expr.t) -> true
      | exception Condense.Wire_error _ -> true)

let prop_minimal_why_absorbed =
  (* no witness in the minimal why-provenance contains another *)
  QCheck.Test.make ~name:"minimal why has no absorbed witness" ~count:200 expr_gen
    (fun e ->
      let w = Prov_expr.minimal_why e in
      Semiring.String_set_set.for_all
        (fun s ->
          not
            (Semiring.String_set_set.exists
               (fun s' ->
                 (not (Semiring.String_set.equal s s'))
                 && Semiring.String_set.subset s' s)
               w))
        w)

(* --- unit tests -------------------------------------------------------------- *)

let test_paper_condensation () =
  (* Section 4.4: <a+a*b> condenses to <a> *)
  let e = Prov_expr.plus (Prov_expr.base "a") (Prov_expr.times (Prov_expr.base "a") (Prov_expr.base "b")) in
  Alcotest.(check string) "raw" "<a+a*b>" (Prov_expr.to_annotation e);
  let ctx = Condense.create_ctx () in
  let condensed, _ = Condense.condense ctx e in
  Alcotest.(check string) "condensed" "<a>" (Prov_expr.to_annotation condensed);
  Alcotest.(check string) "annotation direct" "<a>" (Condense.annotation ctx e)

let test_paper_security_level () =
  (* Section 4.5: max(2, min(2,1)) = 2 *)
  Alcotest.(check int) "paper example" 2 (Trust.paper_example_level ())

let test_smart_constructors () =
  Alcotest.(check bool) "0+x" true
    (Prov_expr.equal (Prov_expr.plus Prov_expr.zero (Prov_expr.base "a")) (Prov_expr.base "a"));
  Alcotest.(check bool) "1*x" true
    (Prov_expr.equal (Prov_expr.times Prov_expr.one (Prov_expr.base "a")) (Prov_expr.base "a"));
  Alcotest.(check bool) "0*x" true
    (Prov_expr.equal (Prov_expr.times Prov_expr.zero (Prov_expr.base "a")) Prov_expr.zero)

let test_count_derivations () =
  let a = Prov_expr.base "a" and b = Prov_expr.base "b" in
  Alcotest.(check int) "a+a*b" 2 (Prov_expr.count_derivations (Prov_expr.plus a (Prov_expr.times a b)));
  Alcotest.(check int) "(a+b)*(a+b)" 4
    (Prov_expr.count_derivations (Prov_expr.times (Prov_expr.plus a b) (Prov_expr.plus a b)))

let test_bases () =
  let e = Prov_expr.plus (Prov_expr.base "b") (Prov_expr.times (Prov_expr.base "a") (Prov_expr.base "b")) in
  Alcotest.(check (list string)) "bases sorted unique" [ "a"; "b" ] (Prov_expr.bases e)

let test_votes () =
  let a = Prov_expr.base "a" and b = Prov_expr.base "b" and c = Prov_expr.base "c" in
  (* a + b*c: a alone suffices; b and c only jointly *)
  let e = Prov_expr.plus a (Prov_expr.times b c) in
  let votes =
    Prov_expr.vote_count e ~principal_of:(fun p -> Some p) ~principals:[ "a"; "b"; "c" ]
  in
  Alcotest.(check int) "only a votes alone" 1 votes

let test_figure1_tree () =
  let t = Derivation.figure1 () in
  Alcotest.(check (list string)) "leaves"
    [ "link(a,b)"; "link(a,c)"; "link(b,c)" ]
    (List.sort compare (Derivation.leaves t));
  Alcotest.(check int) "depth" 3 (Derivation.depth t);
  Alcotest.(check bool) "locations include a and b" true
    (List.mem "a" (Derivation.locations t) && List.mem "b" (Derivation.locations t));
  (* Figure 1 keys by tuple; the expression has one + and one * *)
  let e = Derivation.to_expr_by_tuple t in
  Alcotest.(check string) "figure 1 expression" "<link(a,c)+link(a,b)*link(b,c)>"
    (Prov_expr.to_annotation e)

let test_figure2_tree () =
  let t = Derivation.figure2 () in
  Alcotest.(check bool) "fully attributed" true (Derivation.fully_attributed t);
  let e = Derivation.to_expr t in
  Alcotest.(check string) "keys by principal" "<a+a*b>" (Prov_expr.to_annotation e);
  (* figure 1 is not attributed (plain NDlog) *)
  Alcotest.(check bool) "figure1 unattributed" false
    (Derivation.fully_attributed (Derivation.figure1 ()))

let test_tree_rendering () =
  let s = Derivation.to_string (Derivation.figure2 ()) in
  Alcotest.(check bool) "mentions says" true
    (String.length s > 0
    &&
    let re = "says" in
    let rec contains i =
      i + String.length re <= String.length s
      && (String.sub s i (String.length re) = re || contains (i + 1))
    in
    contains 0)

let test_trust_policies () =
  let e = Prov_expr.plus (Prov_expr.base "a") (Prov_expr.times (Prov_expr.base "a") (Prov_expr.base "b")) in
  Alcotest.(check bool) "accept all" true (Trust.evaluate Trust.Accept_all e);
  Alcotest.(check bool) "trusted {a}" true (Trust.evaluate (Trust.Trusted_set [ "a" ]) e);
  Alcotest.(check bool) "trusted {b}" false (Trust.evaluate (Trust.Trusted_set [ "b" ]) e);
  Alcotest.(check bool) "level >= 2 with a=2" true
    (Trust.evaluate (Trust.Min_security_level { levels = [ ("a", 2); ("b", 1) ]; threshold = 2 }) e);
  Alcotest.(check bool) "level >= 3 fails" false
    (Trust.evaluate (Trust.Min_security_level { levels = [ ("a", 2); ("b", 1) ]; threshold = 3 }) e);
  Alcotest.(check bool) "and" false
    (Trust.evaluate (Trust.And (Trust.Trusted_set [ "a" ], Trust.Trusted_set [ "b" ])) e);
  Alcotest.(check bool) "or" true
    (Trust.evaluate (Trust.Or (Trust.Trusted_set [ "a" ], Trust.Trusted_set [ "b" ])) e)

let test_tropical_semiring () =
  (* min-cost reading: a=1, b=5; a + a*b = min(1, 1+5) = 1 *)
  let e = Prov_expr.plus (Prov_expr.base "a") (Prov_expr.times (Prov_expr.base "a") (Prov_expr.base "b")) in
  let cost =
    Prov_expr.eval (module Semiring.Tropical)
      ~assign:(function "a" -> 1.0 | "b" -> 5.0 | _ -> infinity)
      e
  in
  Alcotest.(check (float 0.001)) "tropical" 1.0 cost

let test_lineage_semiring () =
  let e = Prov_expr.plus (Prov_expr.base "a") (Prov_expr.times (Prov_expr.base "a") (Prov_expr.base "b")) in
  let lin =
    Prov_expr.eval (module Semiring.Lineage)
      ~assign:(fun k -> Some (Semiring.String_set.singleton k))
      e
  in
  match lin with
  | None -> Alcotest.fail "tuple should be present"
  | Some set ->
    Alcotest.(check (list string)) "lineage = all bases" [ "a"; "b" ]
      (Semiring.String_set.elements set)

let test_compression_ratio_grows () =
  (* heavily redundant expressions compress well *)
  let a = Prov_expr.base "a" in
  let big = List.fold_left (fun acc _ -> Prov_expr.Plus (acc, Prov_expr.Times (a, acc))) a (List.init 6 Fun.id) in
  let ctx = Condense.create_ctx () in
  Alcotest.(check bool) "ratio > 3" true (Condense.compression_ratio ctx big > 3.0)

(* --- wire format boundaries -------------------------------------------- *)

(* The condensed-provenance wire format carries 16-bit counts (support
   size, variable ids, name lengths).  These tests pin the boundaries:
   values past the old 8-bit mask must round-trip, and values past 16
   bits must raise [Wire_error] rather than truncate silently. *)

let wire_roundtrip_bases names =
  let e = Prov_expr.plus_list (List.map Prov_expr.base names) in
  let decoded = Condense.of_wire (Condense.create_ctx ()) (Condense.to_wire (Condense.create_ctx ()) e) in
  Alcotest.(check (list string)) "base keys survive the wire"
    (List.sort_uniq compare names)
    (List.sort_uniq compare (Prov_expr.bases decoded))

let test_wire_over_255_variables () =
  (* 300 support variables: the old u8 count field would wrap to 44. *)
  wire_roundtrip_bases (List.init 300 (Printf.sprintf "principal-%04d"))

let test_wire_255_byte_names () =
  let name len tag = String.make (len - 1) 'k' ^ tag in
  wire_roundtrip_bases [ name 255 "a"; name 255 "b"; name 256 "c"; name 300 "d" ]

let test_wire_name_too_long () =
  let ctx = Condense.create_ctx () in
  let e = Prov_expr.base (String.make 70_000 'n') in
  Alcotest.(check bool) "70000-byte name raises Wire_error" true
    (match Condense.to_wire ctx e with
    | _ -> false
    | exception Condense.Wire_error _ -> true)

(* The [to_wire] memo cache is size-bounded: filling it past the limit
   resets it cold, counts the discarded entries as evictions, and
   keeps producing correct encodings. *)
let test_wire_cache_bounded () =
  let evictions = Obs.Metrics.counter Obs.Metrics.default "prov.condense_evictions" in
  let before = Obs.Metrics.value evictions in
  let ctx = Condense.create_ctx ~wire_cache_limit:4 () in
  let exprs =
    List.init 10 (fun i ->
        Prov_expr.times
          (Prov_expr.base (Printf.sprintf "cacheN%d" i))
          (Prov_expr.base "cacheShared"))
  in
  let first = List.map (Condense.to_wire ctx) exprs in
  let evicted = Obs.Metrics.value evictions - before in
  Alcotest.(check bool) "evictions counted" true (evicted >= 4);
  (* encodings stay byte-stable and decodable across evictions *)
  List.iter2
    (fun e w ->
      Alcotest.(check string) "stable encoding" w (Condense.to_wire ctx e);
      let decoded = Condense.of_wire (Condense.create_ctx ()) w in
      Alcotest.(check (list string)) "round trip bases" (Prov_expr.bases e)
        (Prov_expr.bases decoded))
    exprs first;
  Alcotest.check_raises "limit must be positive"
    (Invalid_argument "Condense.create_ctx: wire_cache_limit must be >= 1") (fun () ->
      ignore (Condense.create_ctx ~wire_cache_limit:0 ()))

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "paper condensation <a+a*b> -> <a>" `Quick test_paper_condensation;
    Alcotest.test_case "wire: >255 support variables" `Quick test_wire_over_255_variables;
    Alcotest.test_case "wire: 255/256-byte names" `Quick test_wire_255_byte_names;
    Alcotest.test_case "wire: oversized name rejected" `Quick test_wire_name_too_long;
    Alcotest.test_case "paper security level" `Quick test_paper_security_level;
    Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
    Alcotest.test_case "derivation counting" `Quick test_count_derivations;
    Alcotest.test_case "bases" `Quick test_bases;
    Alcotest.test_case "vote counting" `Quick test_votes;
    Alcotest.test_case "figure 1 tree" `Quick test_figure1_tree;
    Alcotest.test_case "figure 2 tree" `Quick test_figure2_tree;
    Alcotest.test_case "tree rendering" `Quick test_tree_rendering;
    Alcotest.test_case "trust policies" `Quick test_trust_policies;
    Alcotest.test_case "tropical semiring" `Quick test_tropical_semiring;
    Alcotest.test_case "lineage semiring" `Quick test_lineage_semiring;
    Alcotest.test_case "compression ratio" `Quick test_compression_ratio_grows;
    Alcotest.test_case "wire cache bounded + evictions" `Quick test_wire_cache_bounded ]
  @ List.map QCheck_alcotest.to_alcotest
      (semiring_laws "boolean" (module Semiring.Boolean) bool_gen
      @ semiring_laws "counting" (module Semiring.Counting) count_gen
      @ semiring_laws "security-level" (module Semiring.Security_level) level_gen
      @ semiring_laws "lineage" (module Semiring.Lineage) lineage_gen
      @ semiring_laws "why" (module Semiring.Why) why_gen
      @ semiring_laws "tropical" (module Semiring.Tropical) tropical_gen
      @ [ prop_boolean_eval_matches_truth;
          prop_condense_preserves_semantics;
          prop_condense_no_larger;
          prop_bdd_wire_roundtrip;
          prop_condensed_block_mutation;
          prop_minimal_why_absorbed ])
