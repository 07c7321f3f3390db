(* Tests for the crypto substrate: PRNG, SHA-256 (FIPS vectors),
   Miller-Rabin, RSA. *)

open Crypto

(* --- Rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let v = Rng.int_in_range rng ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in closed range" true (v >= 5 && v <= 9)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1 in
  let c1 = Rng.split parent and c2 = Rng.split parent in
  let s1 = List.init 20 (fun _ -> Rng.int c1 1000000) in
  let s2 = List.init 20 (fun _ -> Rng.int c2 1000000) in
  Alcotest.(check bool) "children differ" true (s1 <> s2)

let test_rng_uniformish () =
  (* crude chi-square-free sanity: each bucket within 3x of expected *)
  let rng = Rng.create ~seed:5 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10000 do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket sane" true (c > 300 && c < 3000))
    buckets

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- SHA-256 ------------------------------------------------------------ *)

let test_sha256_fips_vectors () =
  let cases =
    [ ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
         ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" ) ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) "digest" expected (Sha256.hex_digest input))
    cases

let test_sha256_million_a () =
  Alcotest.(check string) "10^6 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_digest (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  (* feeding in chunks agrees with one-shot, across block boundaries *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let rec go off =
        if off < String.length msg then begin
          let n = min chunk (String.length msg - off) in
          Sha256.feed ctx (String.sub msg off n);
          go (off + n)
        end
      in
      go 0;
      Alcotest.(check string) (Printf.sprintf "chunk %d" chunk)
        (Sha256.hex_digest msg)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 1; 7; 63; 64; 65; 128 ]

let test_sha256_padding_boundaries () =
  (* lengths around the 55/56/64 byte padding edges must all differ *)
  let digests = List.init 70 (fun n -> Sha256.hex_digest (String.make n 'x')) in
  Alcotest.(check int) "all distinct" 70
    (List.length (List.sort_uniq compare digests))

(* --- primes ---------------------------------------------------------------- *)

let test_small_primes_classified () =
  let rng = Rng.create ~seed:5 in
  let primes = [ 2; 3; 5; 7; 11; 101; 7919; 104729 ] in
  let composites = [ 0; 1; 4; 9; 100; 561 (* Carmichael *); 7917; 104730 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%d prime" p) true
        (Prime.is_probable_prime rng (Bignum.Nat.of_int p)))
    primes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "%d composite" c) false
        (Prime.is_probable_prime rng (Bignum.Nat.of_int c)))
    composites

let test_generate_prime_width () =
  let rng = Rng.create ~seed:6 in
  List.iter
    (fun bits ->
      let p = Prime.generate rng ~bits in
      Alcotest.(check int) "width" bits (Bignum.Nat.bits p);
      Alcotest.(check bool) "odd" false (Bignum.Nat.is_even p))
    [ 16; 32; 64; 128 ]

(* --- RSA --------------------------------------------------------------------- *)

let test_rsa_sign_verify () =
  let rng = Rng.create ~seed:11 in
  let kp = Rsa.generate rng ~bits:384 in
  let s = Rsa.sign kp.private_ "hello world" in
  Alcotest.(check int) "sig width" 48 (String.length s);
  Alcotest.(check bool) "verifies" true (Rsa.verify kp.public ~signature:s "hello world");
  Alcotest.(check bool) "tampered msg" false
    (Rsa.verify kp.public ~signature:s "hello worle");
  (* tampered signature *)
  let s' = Bytes.of_string s in
  Bytes.set s' 10 (Char.chr (Char.code (Bytes.get s' 10) lxor 1));
  Alcotest.(check bool) "tampered sig" false
    (Rsa.verify kp.public ~signature:(Bytes.to_string s') "hello world")

let test_rsa_wrong_key () =
  let rng = Rng.create ~seed:12 in
  let kp1 = Rsa.generate rng ~bits:384 in
  let kp2 = Rsa.generate rng ~bits:384 in
  let s = Rsa.sign kp1.private_ "msg" in
  Alcotest.(check bool) "cross key" false (Rsa.verify kp2.public ~signature:s "msg")

let test_rsa_deterministic_keygen () =
  let kp1 = Rsa.generate (Rng.create ~seed:13) ~bits:384 in
  let kp2 = Rsa.generate (Rng.create ~seed:13) ~bits:384 in
  Alcotest.(check string) "same keys from same seed"
    (Rsa.public_to_string kp1.public) (Rsa.public_to_string kp2.public)

let test_rsa_public_key_serialization () =
  let kp = Rsa.generate (Rng.create ~seed:14) ~bits:384 in
  match Rsa.public_of_string (Rsa.public_to_string kp.public) with
  | None -> Alcotest.fail "roundtrip failed"
  | Some pub ->
    let s = Rsa.sign kp.private_ "x" in
    Alcotest.(check bool) "verify with parsed key" true (Rsa.verify pub ~signature:s "x");
    Alcotest.(check string) "fingerprint stable" (Rsa.fingerprint kp.public)
      (Rsa.fingerprint pub)

let test_rsa_public_of_string_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Option.is_none (Rsa.public_of_string s)))
    [ "rsa:384:1000:10001" (* even modulus *);
      "rsa:384:1:10001" (* modulus 1 *);
      "rsa:384:xyz:10001" (* not hex *);
      "rsa:x:10001:10001";
      "dsa:384:10001:10001" ]

let test_rsa_modulus_too_small () =
  Alcotest.check_raises "too small" (Invalid_argument "Rsa.generate: modulus too small")
    (fun () -> ignore (Rsa.generate (Rng.create ~seed:1) ~bits:32))

(* --- CRT / Montgomery signing ------------------------------------------------- *)

let nat = Alcotest.testable (fun fmt n -> Format.fprintf fmt "%s" (Bignum.Nat.to_string n))
    Bignum.Nat.equal

(* The oracle for [Rsa.sign]: one full-width square-and-multiply
   exponentiation of the padded digest, left-padded to the modulus
   width. *)
let naive_sign (priv : Rsa.private_key) (msg : string) : string =
  let m = Rsa.encode_digest priv.pub (Sha256.digest msg) in
  let raw = Bignum.Nat.to_bytes_be (Bignum.Nat.mod_pow m priv.d priv.pub.n) in
  String.make (Rsa.signature_size priv.pub - String.length raw) '\000' ^ raw

let test_rsa_crt_material () =
  let kp = Rsa.generate (Rng.create ~seed:21) ~bits:384 in
  let c = kp.private_.crt in
  let open Bignum in
  Alcotest.check nat "p*q = n" kp.public.n (Nat.mul c.p c.q);
  Alcotest.check nat "d_p = d mod p-1"
    (Nat.rem kp.private_.d (Nat.sub c.p Nat.one)) c.d_p;
  Alcotest.check nat "d_q = d mod q-1"
    (Nat.rem kp.private_.d (Nat.sub c.q Nat.one)) c.d_q;
  Alcotest.check nat "q_inv * q = 1 mod p" Nat.one (Nat.rem (Nat.mul c.q_inv c.q) c.p)

let test_rsa_sign_byte_identity () =
  (* CRT/Montgomery signing must be byte-identical to naive
     exponentiation, and the oracle's signatures must verify. *)
  let kp = Rsa.generate (Rng.create ~seed:22) ~bits:384 in
  List.iter
    (fun msg ->
      let naive = naive_sign kp.private_ msg in
      Alcotest.(check string) "identical bytes" naive (Rsa.sign kp.private_ msg);
      Alcotest.(check bool) "naive signature verifies" true
        (Rsa.verify kp.public ~signature:naive msg))
    [ ""; "x"; "hello world"; String.make 1000 'z'; "\x00\x01\xff" ]

(* Signatures of one message under keys from fixed seeds, pinned: the
   Montgomery kernel also drives Miller-Rabin, so these pin which
   primes key generation picks as well as the signing arithmetic.
   [crt/montgomery signing = naive signing] signs with whatever key it
   is given and cannot see a changed key. *)
let test_rsa_golden_signatures () =
  List.iter
    (fun (bits, fingerprint, signature) ->
      let kp = Rsa.generate (Rng.create ~seed:2027) ~bits in
      let s = Rsa.sign kp.private_ "provenance-aware secure networks" in
      Alcotest.(check string) (Printf.sprintf "%d-bit key" bits) fingerprint
        (Rsa.fingerprint kp.public);
      Alcotest.(check string) (Printf.sprintf "%d-bit signature" bits) signature
        (Sha256.to_hex s))
    [ ( 384,
        "024b93418f2d684e",
        "2eff0017deb362b19d3b4217b655af42a41627b6071f059fc0c760dadff96acc\
         1941aedb080b57b8048eee8c39005787" );
      ( 512,
        "be480d6afb708dab",
        "27545765d3021abb4d356c416f585484868d36bad0be65d1f50c0bcd9715b444\
         a5a77aed6b80b19ceadd792c52c4ba6a774ea068bf4b2b2de7b6dd382dd23b11" );
      ( 1024,
        "c02187d1eaa40e82",
        "57633d82ae9354b6b677838cdbbd7648b5ab79d7d2b2cb225b1e6c59671e9769\
         99fa2fd45a9d1f6a433039fc5c1362ebccff3b25edd9e28ac69bd98bcd0a62c5\
         c05df5a17053fb9ed711495c30db8a8fa3fac96c3b78a34efcd50f1428f9ab14\
         967a0fcbd07b5131955228a43bf336de83a46e47c61ef7fe780115cfd578e7c0" ) ]

(* --- properties --------------------------------------------------------------- *)

let prop_sha_distinct =
  QCheck.Test.make ~name:"sha256 injective on samples" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let shared_kp = lazy (Rsa.generate (Rng.create ~seed:77) ~bits:384)

let prop_rsa_roundtrip =
  QCheck.Test.make ~name:"rsa sign/verify roundtrip" ~count:25 QCheck.small_string
    (fun msg ->
      let kp = Lazy.force shared_kp in
      Rsa.verify kp.public ~signature:(Rsa.sign kp.private_ msg) msg)

let prop_rsa_sign_matches_naive =
  QCheck.Test.make ~name:"crt/montgomery signing = naive signing" ~count:20
    QCheck.small_string (fun msg ->
      let kp = Lazy.force shared_kp in
      String.equal (Rsa.sign kp.private_ msg) (naive_sign kp.private_ msg))

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng uniform-ish" `Quick test_rng_uniformish;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_fips_vectors;
    Alcotest.test_case "sha256 million a" `Slow test_sha256_million_a;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "sha256 padding edges" `Quick test_sha256_padding_boundaries;
    Alcotest.test_case "prime classification" `Quick test_small_primes_classified;
    Alcotest.test_case "prime width" `Quick test_generate_prime_width;
    Alcotest.test_case "rsa sign/verify" `Quick test_rsa_sign_verify;
    Alcotest.test_case "rsa wrong key" `Quick test_rsa_wrong_key;
    Alcotest.test_case "rsa deterministic keygen" `Quick test_rsa_deterministic_keygen;
    Alcotest.test_case "rsa key serialization" `Quick test_rsa_public_key_serialization;
    Alcotest.test_case "rsa key parsing rejects" `Quick test_rsa_public_of_string_rejects;
    Alcotest.test_case "rsa modulus too small" `Quick test_rsa_modulus_too_small;
    Alcotest.test_case "rsa crt material" `Quick test_rsa_crt_material;
    Alcotest.test_case "rsa fastpath byte identity" `Quick test_rsa_sign_byte_identity;
    Alcotest.test_case "rsa golden signatures" `Quick test_rsa_golden_signatures ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_sha_distinct; prop_rsa_roundtrip; prop_rsa_sign_matches_naive ]
