(* Tests for the SeNDlog security layer: principals, the says
   authentication modes, and program compilation. *)

let rng () = Crypto.Rng.create ~seed:123

(* --- principals -------------------------------------------------------- *)

let test_directory () =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] (Sendlog.Principal.names d);
  Alcotest.(check bool) "find" true (Sendlog.Principal.find d "b" <> None);
  Alcotest.(check bool) "missing" true (Sendlog.Principal.find d "z" = None);
  Alcotest.(check int) "default level" 1 (Sendlog.Principal.level_of d "a");
  Alcotest.(check int) "unknown level" 0 (Sendlog.Principal.level_of d "z")

let test_directory_levels () =
  let d =
    Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384
      ~level_of_name:(fun n -> if n = "core" then 3 else 1)
      [ "core"; "edge" ]
  in
  Alcotest.(check int) "core level" 3 (Sendlog.Principal.level_of d "core");
  Alcotest.(check int) "edge level" 1 (Sendlog.Principal.level_of d "edge")

let test_distinct_keys () =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a"; "b" ] in
  let pa = Sendlog.Principal.find_exn d "a" and pb = Sendlog.Principal.find_exn d "b" in
  Alcotest.(check bool) "different RSA keys" false
    (Crypto.Rsa.public_to_string (Sendlog.Principal.public_key pa)
    = Crypto.Rsa.public_to_string (Sendlog.Principal.public_key pb))

(* Principals draw their RSA keys from the directory's generator in
   list order, so these fingerprints pin the key stream.  The prime
   search draws its candidates in fixed-size blocks, so a stream
   shifted by whole blocks often lands on the same primes again; with
   seed 14, one extra 32-byte draw per principal changes the keys of
   both "b" and "c". *)
let test_directory_golden_keys () =
  let d =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:14) ~rsa_bits:384
      [ "a"; "b"; "c" ]
  in
  List.iter
    (fun (name, fingerprint) ->
      Alcotest.(check string) name fingerprint
        (Crypto.Rsa.fingerprint
           (Sendlog.Principal.public_key (Sendlog.Principal.find_exn d name))))
    [ ("a", "e8652c43806b44df"); ("b", "06b0702bc5d79204"); ("c", "6a97b774b9430f17") ]

(* --- auth modes --------------------------------------------------------- *)

let check_mode mode expected_verdict_on_ok =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a"; "b" ] in
  let sender = Sendlog.Principal.find_exn d "a" in
  let bytes = "payload-bytes" in
  let auth = Sendlog.Auth.make_auth mode sender bytes in
  let v = Sendlog.Auth.verify mode d auth bytes in
  Alcotest.(check bool)
    (Sendlog.Auth.mode_to_string mode ^ " verdict")
    true (v = expected_verdict_on_ok)

let test_auth_none () = check_mode Sendlog.Auth.Auth_none Sendlog.Auth.Unsigned
let test_auth_cleartext () = check_mode Sendlog.Auth.Auth_cleartext (Sendlog.Auth.Verified "a")
let test_auth_rsa () = check_mode Sendlog.Auth.Auth_rsa (Sendlog.Auth.Verified "a")

let test_auth_tamper_detected () =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a" ] in
  let sender = Sendlog.Principal.find_exn d "a" in
  List.iter
    (fun mode ->
      let auth = Sendlog.Auth.make_auth mode sender "original" in
      match Sendlog.Auth.verify mode d auth "tampered" with
      | Sendlog.Auth.Forged _ -> ()
      | _ -> Alcotest.fail (Sendlog.Auth.mode_to_string mode ^ " accepted tampered bytes"))
    [ Sendlog.Auth.Auth_rsa ]

let test_auth_unknown_principal () =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a" ] in
  let outsider = Sendlog.Principal.create (rng ()) ~name:"mallory" ~rsa_bits:384 () in
  let auth = Sendlog.Auth.make_auth Sendlog.Auth.Auth_rsa outsider "bytes" in
  (match Sendlog.Auth.verify Sendlog.Auth.Auth_rsa d auth "bytes" with
  | Sendlog.Auth.Forged _ -> ()
  | _ -> Alcotest.fail "unknown principal accepted")

let test_auth_impersonation_detected () =
  (* mallory registers her own key but claims to be alice *)
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "alice"; "mallory" ] in
  let mallory = Sendlog.Principal.find_exn d "mallory" in
  let bytes = "spoofed" in
  let forged =
    Net.Wire.A_signature
      { principal = "alice"; signature = Crypto.Rsa.sign mallory.keypair.private_ bytes }
  in
  (match Sendlog.Auth.verify Sendlog.Auth.Auth_rsa d forged bytes with
  | Sendlog.Auth.Forged _ -> ()
  | _ -> Alcotest.fail "impersonation accepted");
  (* cleartext mode, by design, accepts the claim - that is the benign
     world trade-off the paper describes *)
  (match Sendlog.Auth.verify Sendlog.Auth.Auth_cleartext d (Net.Wire.A_principal "alice") bytes with
  | Sendlog.Auth.Verified "alice" -> ()
  | _ -> Alcotest.fail "cleartext should accept at face value")

let test_provenance_node_signing () =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a" ] in
  let p = Sendlog.Principal.find_exn d "a" in
  (match Sendlog.Auth.sign_provenance_node Sendlog.Auth.Auth_rsa p ~node_repr:"n" with
  | Some signature ->
    Alcotest.(check bool) "verifies" true
      (Sendlog.Auth.verify_provenance_node Sendlog.Auth.Auth_rsa d ~principal:"a"
         ~node_repr:"n" ~signature);
    Alcotest.(check bool) "wrong repr" false
      (Sendlog.Auth.verify_provenance_node Sendlog.Auth.Auth_rsa d ~principal:"a"
         ~node_repr:"m" ~signature)
  | None -> Alcotest.fail "rsa mode must sign");
  Alcotest.(check bool) "cleartext does not sign" true
    (Sendlog.Auth.sign_provenance_node Sendlog.Auth.Auth_cleartext p ~node_repr:"n" = None)

(* --- signature cache -------------------------------------------------------- *)

let cache_counter name = Obs.Metrics.value (Obs.Metrics.counter Obs.Metrics.default name)

let test_sign_cache_hit_identical () =
  (* Signing the same payload twice: one miss then one hit, and the
     cached signature is byte-identical both to the cold one and to a
     naive full-width signing. *)
  Obs.Metrics.reset Obs.Metrics.default;
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a" ] in
  let sender = Sendlog.Principal.find_exn d "a" in
  let bytes = "payload-to-cache" in
  let hits0 = cache_counter "crypto.sign_cache_hits" in
  let misses0 = cache_counter "crypto.sign_cache_misses" in
  let sig_of = function
    | Net.Wire.A_signature { signature; _ } -> signature
    | _ -> Alcotest.fail "expected an RSA signature"
  in
  let cold = sig_of (Sendlog.Auth.make_auth Sendlog.Auth.Auth_rsa sender bytes) in
  Alcotest.(check int) "one miss" (misses0 + 1) (cache_counter "crypto.sign_cache_misses");
  let cached = sig_of (Sendlog.Auth.make_auth Sendlog.Auth.Auth_rsa sender bytes) in
  Alcotest.(check int) "one hit" (hits0 + 1) (cache_counter "crypto.sign_cache_hits");
  Alcotest.(check string) "cache hit byte-identical to cold" cold cached;
  Alcotest.(check string) "identical to naive signing" cold
    (Test_crypto.naive_sign sender.keypair.private_ bytes);
  (* clearing the cache forces a fresh signing, still identical *)
  Sendlog.Principal.clear_sign_caches d;
  let recomputed = sig_of (Sendlog.Auth.make_auth Sendlog.Auth.Auth_rsa sender bytes) in
  Alcotest.(check int) "miss after clear" (misses0 + 2)
    (cache_counter "crypto.sign_cache_misses");
  Alcotest.(check string) "recomputed identical" cold recomputed

(* End-to-end characterization of the sender sign cache.  The signed
   payload is (src, dst, tuple) — no seq, no provenance block — so a
   re-derivation that re-ships the same tuple to the same destination
   under a new provenance block recurs byte-identically and resolves
   as a digest-cache hit.  The runtime signs only what it sends: a
   re-emission the sent cache deduplicates (same destination, tuple
   and provenance block) is dropped before signing.  This fixture
   drives both paths: node n1 derives out(@n2, x) once from a local
   base (provenance <n1>) and once from a relayed body (provenance
   involving n0). *)
let sign_cache_fixture_program =
  Ndlog.Parser.parse_program_exn
    {|
x1 out(@D, X) :- local(@S, D, X).
x2 out(@D, X) :- relay(@S, D, X).
x3 relay(@Z, D, X) :- seed(@C, Z, D, X).
|}

let run_sign_cache_fixture cfg =
  Obs.Metrics.reset Obs.Metrics.default;
  let topo = Net.Topology.line ~n:3 () in
  let directory =
    Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 topo.Net.Topology.nodes
  in
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed:5) ~cfg ~topo
      ~program:sign_cache_fixture_program ()
  in
  let v s = Engine.Value.V_str s in
  (* first derivation of out(n2,x): local base at n1, provenance <n1> *)
  Core.Runtime.install_fact t ~at:"n1"
    (Engine.Tuple.make "local" [ v "n1"; v "n2"; v "x" ]);
  ignore (Core.Runtime.run t);
  let hits_before = cache_counter "crypto.sign_cache_hits" in
  (* second derivation via the relay: same head tuple, same destination,
     different provenance block *)
  Core.Runtime.install_fact t ~at:"n0"
    (Engine.Tuple.make "seed" [ v "n0"; v "n1"; v "n2"; v "x" ]);
  ignore (Core.Runtime.run t);
  let st = Core.Runtime.stats t in
  Core.Runtime.shutdown t;
  (hits_before, cache_counter "crypto.sign_cache_hits", st)

let test_sign_cache_live_path () =
  let cfg = { Core.Config.sendlog_prov with rsa_bits = 384 } in
  let hits_before, hits_after, st = run_sign_cache_fixture cfg in
  Alcotest.(check int) "no hit from the first emission" 0 hits_before;
  Alcotest.(check bool) "re-shipment with new provenance hits the cache" true
    (hits_after > hits_before);
  Alcotest.(check int) "cached signatures verify at the receiver" 0
    st.Net.Stats.dropped_forged

let test_sign_cache_alive_without_provenance () =
  (* Same scenario without shipped provenance: both emissions carry the
     same (empty) provenance block, so the sent cache drops the
     re-emission before it is signed.  It is neither sent nor looked
     up in the sign cache: the run sends two messages (n1's out and
     n0's relay), each signed once on a cache miss. *)
  let cfg = { Core.Config.sendlog with rsa_bits = 384 } in
  let hits_before, hits_after, st = run_sign_cache_fixture cfg in
  let misses = cache_counter "crypto.sign_cache_misses" in
  Alcotest.(check int) "re-emission not looked up in the sign cache" 0
    (hits_before + hits_after);
  Alcotest.(check int) "re-emission not sent" 2 st.Net.Stats.messages;
  Alcotest.(check int) "one signature per message" st.Net.Stats.messages
    st.Net.Stats.signatures_generated;
  Alcotest.(check int) "one cache lookup per signature"
    st.Net.Stats.signatures_generated misses

(* --- batched verification --------------------------------------------- *)

let verdict_str = function
  | Sendlog.Auth.Verified p -> "verified:" ^ p
  | Sendlog.Auth.Unsigned -> "unsigned"
  | Sendlog.Auth.Forged why -> "forged:" ^ why

let signed_item sender payload =
  let slice = Net.Arena.of_string payload in
  (Sendlog.Auth.make_auth_slice Sendlog.Auth.Auth_rsa sender slice, slice)

let test_verify_batch_size_one () =
  Obs.Metrics.reset Obs.Metrics.default;
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a"; "b" ] in
  let sender = Sendlog.Principal.find_exn d "a" in
  let verdicts =
    Sendlog.Auth.verify_batch Sendlog.Auth.Auth_rsa d [| signed_item sender "m0" |]
  in
  Alcotest.(check (list string)) "single verdict" [ "verified:a" ]
    (Array.to_list (Array.map verdict_str verdicts));
  Alcotest.(check int) "one batch counted" 1 (cache_counter "crypto.verify_batches");
  Alcotest.(check int) "one item counted" 1 (cache_counter "crypto.verify_batch_size")

let test_verify_batch_empty_uncounted () =
  Obs.Metrics.reset Obs.Metrics.default;
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a" ] in
  Alcotest.(check int) "no verdicts" 0
    (Array.length (Sendlog.Auth.verify_batch Sendlog.Auth.Auth_rsa d [||]));
  Alcotest.(check int) "no batch counted" 0 (cache_counter "crypto.verify_batches");
  Alcotest.(check int) "no items counted" 0 (cache_counter "crypto.verify_batch_size")

let test_verify_batch_pinpoints_forgery () =
  (* a forged message in the middle of a batch: only its slot comes
     back Forged, the neighbours still verify *)
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a"; "b" ] in
  let sender = Sendlog.Principal.find_exn d "a" in
  let forged =
    (* a's genuine signature shipped with different bytes *)
    let auth, _ = signed_item sender "m1" in
    (auth, Net.Arena.of_string "m1-tampered")
  in
  let verdicts =
    Sendlog.Auth.verify_batch Sendlog.Auth.Auth_rsa d
      [| signed_item sender "m0"; forged; signed_item sender "m2" |]
  in
  Alcotest.(check (list string)) "middle slot pinpointed"
    [ "verified:a"; "forged:bad signature from a"; "verified:a" ]
    (Array.to_list (Array.map verdict_str verdicts))

let test_verify_batch_unknown_principal () =
  let d = Sendlog.Principal.directory_for (rng ()) ~rsa_bits:384 [ "a"; "b" ] in
  let stranger =
    Sendlog.Principal.create (Crypto.Rng.create ~seed:77) ~name:"mallory" ~rsa_bits:384 ()
  in
  let verdicts =
    Sendlog.Auth.verify_batch Sendlog.Auth.Auth_rsa d [| signed_item stranger "m0" |]
  in
  Alcotest.(check string) "unknown principal named" "forged:unknown principal mallory"
    (verdict_str verdicts.(0))

(* --- compilation ----------------------------------------------------------- *)

let test_compile_ndlog_localizes () =
  let c = Sendlog.Compile.compile (Ndlog.Programs.reachable ()) in
  Alcotest.(check bool) "not sendlog" false c.c_sendlog;
  Alcotest.(check int) "localized rule count" 3 (List.length c.c_rules);
  Alcotest.(check bool) "all localized" true
    (List.for_all Ndlog.Localize.is_localized c.c_rules)

let test_compile_sendlog_detected () =
  let c = Sendlog.Compile.compile (Ndlog.Programs.sendlog_reachable ()) in
  Alcotest.(check bool) "sendlog" true c.c_sendlog;
  Alcotest.(check (list string)) "imported under says" [ "linkD"; "reachable" ]
    c.c_comm.imported;
  Alcotest.(check (list string)) "exported" [ "linkD"; "reachable" ] c.c_comm.exported

let test_compile_rejects_bad_program () =
  let bad = Ndlog.Parser.parse_program_exn "r p(@S, D) :- q(@S)." in
  Alcotest.(check bool) "unsafe rejected" true
    (match Sendlog.Compile.compile bad with
    | exception Sendlog.Compile.Compile_error _ -> true
    | _ -> false)

let test_compile_rejects_unroutable () =
  let bad = Ndlog.Parser.parse_program_exn "r t(@S) :- a(@S), b(@Z, S)." in
  Alcotest.(check bool) "unroutable rejected" true
    (match Sendlog.Compile.compile bad with
    | exception Sendlog.Compile.Compile_error _ -> true
    | _ -> false)

let test_compile_best_path_programs () =
  (* both Best-Path variants compile cleanly *)
  let c1 = Sendlog.Compile.compile (Ndlog.Programs.best_path ()) in
  Alcotest.(check bool) "ndlog best path localized" true
    (List.for_all Ndlog.Localize.is_localized c1.c_rules);
  let c2 = Sendlog.Compile.compile (Ndlog.Programs.sendlog_best_path ()) in
  Alcotest.(check bool) "sendlog variant detected" true c2.c_sendlog

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "directory" `Quick test_directory;
    Alcotest.test_case "directory levels" `Quick test_directory_levels;
    Alcotest.test_case "distinct keys" `Quick test_distinct_keys;
    Alcotest.test_case "directory golden keys" `Quick test_directory_golden_keys;
    Alcotest.test_case "auth none" `Quick test_auth_none;
    Alcotest.test_case "auth cleartext" `Quick test_auth_cleartext;
    Alcotest.test_case "auth rsa" `Quick test_auth_rsa;
    Alcotest.test_case "tamper detection" `Quick test_auth_tamper_detected;
    Alcotest.test_case "unknown principal" `Quick test_auth_unknown_principal;
    Alcotest.test_case "impersonation" `Quick test_auth_impersonation_detected;
    Alcotest.test_case "provenance node signatures" `Quick test_provenance_node_signing;
    Alcotest.test_case "sign cache hit identical" `Quick test_sign_cache_hit_identical;
    Alcotest.test_case "sign cache live path (prov re-shipment)" `Quick
      test_sign_cache_live_path;
    Alcotest.test_case "sign cache alive without provenance" `Quick
      test_sign_cache_alive_without_provenance;
    Alcotest.test_case "verify batch: size one" `Quick test_verify_batch_size_one;
    Alcotest.test_case "verify batch: empty uncounted" `Quick
      test_verify_batch_empty_uncounted;
    Alcotest.test_case "verify batch: forgery pinpointed" `Quick
      test_verify_batch_pinpoints_forgery;
    Alcotest.test_case "verify batch: unknown principal" `Quick
      test_verify_batch_unknown_principal;
    Alcotest.test_case "compile localizes NDlog" `Quick test_compile_ndlog_localizes;
    Alcotest.test_case "compile detects SeNDlog" `Quick test_compile_sendlog_detected;
    Alcotest.test_case "compile rejects unsafe" `Quick test_compile_rejects_bad_program;
    Alcotest.test_case "compile rejects unroutable" `Quick test_compile_rejects_unroutable;
    Alcotest.test_case "compile best-path variants" `Quick test_compile_best_path_programs ]
