(* Tests for the arbitrary-precision arithmetic substrate. *)

open Bignum

let nat = Alcotest.testable Nat.pp Nat.equal

let check_nat = Alcotest.check nat

(* --- unit tests ------------------------------------------------------ *)

let test_of_int_roundtrip () =
  List.iter
    (fun i -> Alcotest.(check (option int)) "roundtrip" (Some i) (Nat.to_int_opt (Nat.of_int i)))
    [ 0; 1; 2; 25; 26; 63; 64; 65; 12345678; max_int ]

let test_add_basic () =
  check_nat "1+1" Nat.two (Nat.add Nat.one Nat.one);
  check_nat "0+x" (Nat.of_int 42) (Nat.add Nat.zero (Nat.of_int 42));
  (* carries across limbs *)
  let big = Nat.of_string "67108863" (* 2^26 - 1 *) in
  check_nat "carry" (Nat.of_string "67108864") (Nat.add big Nat.one)

let test_sub_basic () =
  check_nat "x-x" Nat.zero (Nat.sub (Nat.of_int 99) (Nat.of_int 99));
  check_nat "borrow" (Nat.of_string "67108863") (Nat.sub (Nat.of_string "67108864") Nat.one);
  Alcotest.check_raises "negative" (Invalid_argument "Nat.sub: would be negative")
    (fun () -> ignore (Nat.sub Nat.one Nat.two))

let test_mul_known () =
  check_nat "known product"
    (Nat.of_string "121932631137021795226185032733622923332237463801111263526900")
    (Nat.mul
       (Nat.of_string "123456789012345678901234567890")
       (Nat.of_string "987654321098765432109876543210"))

let test_divmod_known () =
  let q, r = Nat.divmod (Nat.of_string "1000000000000000000000") (Nat.of_string "7777777") in
  check_nat "q" (Nat.of_string "128571441428572") q;
  check_nat "r" (Nat.of_string "5555556") r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_divmod_edge_cases () =
  (* dividend smaller than divisor *)
  let q, r = Nat.divmod (Nat.of_int 5) (Nat.of_int 7) in
  check_nat "q=0" Nat.zero q;
  check_nat "r=dividend" (Nat.of_int 5) r;
  (* exact division *)
  let a = Nat.of_string "123456789123456789123456789" in
  let q, r = Nat.divmod (Nat.mul a (Nat.of_int 997)) a in
  check_nat "exact q" (Nat.of_int 997) q;
  check_nat "exact r" Nat.zero r;
  (* the Knuth D add-back case needs top-limb patterns; stress a few *)
  let u = Nat.of_hex "7fffffffffffffffffffffffffffffff" in
  let v = Nat.of_hex "80000000000000000000000001" in
  let q, r = Nat.divmod u v in
  check_nat "reconstruct" u (Nat.add (Nat.mul q v) r);
  Alcotest.(check bool) "r < v" true (Nat.compare r v < 0)

let test_mod_pow () =
  (* Fermat: a^(p-1) = 1 mod p for prime p not dividing a *)
  let p = Nat.of_int 1000000007 in
  let a = Nat.of_int 123456 in
  check_nat "fermat" Nat.one (Nat.mod_pow a (Nat.sub p Nat.one) p);
  check_nat "mod 1" Nat.zero (Nat.mod_pow a (Nat.of_int 5) Nat.one);
  check_nat "e=0" Nat.one (Nat.mod_pow a Nat.zero p)

let test_shift () =
  check_nat "shl" (Nat.of_int 1024) (Nat.shift_left Nat.one 10);
  check_nat "shr" Nat.one (Nat.shift_right (Nat.of_int 1024) 10);
  check_nat "shr to zero" Nat.zero (Nat.shift_right (Nat.of_int 5) 10);
  (* cross-limb shifts *)
  let x = Nat.of_string "987654321987654321" in
  check_nat "shl/shr inverse" x (Nat.shift_right (Nat.shift_left x 53) 53)

let test_bits_testbit () =
  Alcotest.(check int) "bits 0" 0 (Nat.bits Nat.zero);
  Alcotest.(check int) "bits 1" 1 (Nat.bits Nat.one);
  Alcotest.(check int) "bits 255" 8 (Nat.bits (Nat.of_int 255));
  Alcotest.(check int) "bits 256" 9 (Nat.bits (Nat.of_int 256));
  Alcotest.(check bool) "testbit" true (Nat.testbit (Nat.of_int 5) 2);
  Alcotest.(check bool) "testbit clear" false (Nat.testbit (Nat.of_int 5) 1)

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_string (Nat.of_string s)))
    [ "0"; "1"; "67108864"; "123456789012345678901234567890123456789" ]

let test_hex_roundtrip () =
  List.iter
    (fun h -> Alcotest.(check string) h h (Nat.to_hex (Nat.of_hex h)))
    [ "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ];
  check_nat "hex value" (Nat.of_int 255) (Nat.of_hex "FF")

let test_bytes_roundtrip () =
  let x = Nat.of_string "340282366920938463463374607431768211455" in
  check_nat "bytes" x (Nat.of_bytes_be (Nat.to_bytes_be x));
  Alcotest.(check string) "zero byte" "\000" (Nat.to_bytes_be Nat.zero)

let test_gcd () =
  check_nat "gcd" (Nat.of_int 6) (Nat.gcd (Nat.of_int 54) (Nat.of_int 24));
  check_nat "gcd with zero" (Nat.of_int 7) (Nat.gcd (Nat.of_int 7) Nat.zero);
  check_nat "gcd coprime" Nat.one (Nat.gcd (Nat.of_int 17) (Nat.of_int 256))

let test_pow () =
  check_nat "2^10" (Nat.of_int 1024) (Nat.pow Nat.two 10);
  check_nat "x^0" Nat.one (Nat.pow (Nat.of_int 99) 0);
  check_nat "10^30" (Nat.of_string ("1" ^ String.make 30 '0')) (Nat.pow (Nat.of_int 10) 30)

(* --- Montgomery fast path ---------------------------------------------- *)

let test_mont_rejects_bad_modulus () =
  List.iter
    (fun m ->
      Alcotest.check_raises "odd modulus required"
        (Invalid_argument "Nat.Mont.ctx: modulus must be odd and > 1")
        (fun () -> ignore (Nat.Mont.ctx m)))
    [ Nat.zero; Nat.one; Nat.two; Nat.of_int 4096 ]

let test_mont_known_values () =
  let p = Nat.of_int 1000000007 in
  let c = Nat.Mont.ctx p in
  check_nat "modulus" p (Nat.Mont.modulus c);
  check_nat "fermat" Nat.one
    (Nat.Mont.mod_pow c (Nat.of_int 123456) (Nat.sub p Nat.one));
  check_nat "e=0" Nat.one (Nat.Mont.mod_pow c (Nat.of_int 5) Nat.zero);
  check_nat "b=0" Nat.zero (Nat.Mont.mod_pow c Nat.zero (Nat.of_int 17));
  check_nat "b=1" Nat.one (Nat.Mont.mod_pow c Nat.one (Nat.of_int 99));
  check_nat "int exponent"
    (Nat.mod_pow (Nat.of_int 3) (Nat.of_int 65537) p)
    (Nat.Mont.mod_pow c (Nat.of_int 3) (Nat.of_int 65537))

let test_mont_limb_bound () =
  (* 512 limbs is the widest modulus the kernel's stack buffers hold
     (208 64-bit limbs); the all-ones modulus and a base just below it
     fill every limb of them. *)
  let all_ones k = Nat.sub (Nat.shift_left Nat.one (26 * k)) Nat.one in
  let m = all_ones 512 in
  let c = Nat.Mont.ctx m in
  let b = Nat.sub m Nat.two in
  check_nat "mod_pow at 512 limbs" (Nat.mod_pow b (Nat.of_int 31) m)
    (Nat.Mont.mod_pow c b (Nat.of_int 31));
  check_nat "e = 65537 at 512 limbs" (Nat.mod_pow b (Nat.of_int 65537) m)
    (Nat.Mont.mod_pow c b (Nat.of_int 65537));
  List.iter
    (fun m ->
      Alcotest.check_raises "wider than 512 limbs"
        (Invalid_argument "Nat.Mont.ctx: modulus wider than 512 limbs")
        (fun () -> ignore (Nat.Mont.ctx m)))
    [ Nat.add (Nat.shift_left Nat.one (26 * 512)) Nat.one; all_ones 600 ]

let test_mont_no_alloc_per_step () =
  (* Exponents of equal width (same window) but 2 vs ~40 windows: the
     steps allocate nothing, so both allocate the same.  The base is
     just below the modulus so that both results are full width and
     the final [normalize] copies neither. *)
  let m = Nat.add (Nat.shift_left Nat.one 383) (Nat.of_int 187) in
  let c = Nat.Mont.ctx m and b = Nat.sub m (Nat.of_int 123_456_789) in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let sparse = Nat.add (Nat.shift_left Nat.one 200) Nat.one in
  let dense = Nat.sub (Nat.shift_left Nat.one 201) Nat.one in
  ignore (words (fun () -> Nat.Mont.mod_pow c b sparse));
  Alcotest.(check (float 0.)) "mod_pow"
    (words (fun () -> Nat.Mont.mod_pow c b sparse))
    (words (fun () -> Nat.Mont.mod_pow c b dense))

(* --- Bigint ----------------------------------------------------------- *)

let bigint = Alcotest.testable Bigint.pp Bigint.equal

let test_bigint_signs () =
  let m3 = Bigint.of_int (-3) and p5 = Bigint.of_int 5 in
  Alcotest.check bigint "add" (Bigint.of_int 2) (Bigint.add m3 p5);
  Alcotest.check bigint "sub" (Bigint.of_int (-8)) (Bigint.sub m3 p5);
  Alcotest.check bigint "mul" (Bigint.of_int (-15)) (Bigint.mul m3 p5);
  Alcotest.check bigint "neg zero" Bigint.zero (Bigint.neg Bigint.zero);
  Alcotest.(check int) "sign" (-1) (Bigint.sign_int m3);
  Alcotest.(check int) "sign zero" 0 (Bigint.sign_int Bigint.zero)

let test_bigint_divmod_truncated () =
  (* matches OCaml's (/) and (mod) semantics *)
  List.iter
    (fun (a, b) ->
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      Alcotest.check bigint (Printf.sprintf "%d/%d q" a b) (Bigint.of_int (a / b)) q;
      Alcotest.check bigint (Printf.sprintf "%d mod %d" a b) (Bigint.of_int (a mod b)) r)
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (12, 4) ]

let test_bigint_egcd () =
  let check_pair a b =
    let g, x, y = Bigint.egcd (Bigint.of_int a) (Bigint.of_int b) in
    let lhs =
      Bigint.add (Bigint.mul (Bigint.of_int a) x) (Bigint.mul (Bigint.of_int b) y)
    in
    Alcotest.check bigint "bezout" g lhs
  in
  List.iter (fun (a, b) -> check_pair a b) [ (240, 46); (17, 0); (0, 5); (-35, 15) ]

let test_bigint_mod_inverse () =
  (match Bigint.mod_inverse (Bigint.of_int 3) (Bigint.of_int 7) with
  | Some i -> Alcotest.check bigint "3^-1 mod 7" (Bigint.of_int 5) i
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "no inverse" true
    (Bigint.mod_inverse (Bigint.of_int 4) (Bigint.of_int 8) = None)

(* --- property tests ---------------------------------------------------- *)

let prop_add_commutative =
  QCheck.Test.make ~name:"nat add commutative" ~count:200
    QCheck.(pair (int_bound 100_000_000) (int_bound 100_000_000))
    (fun (a, b) -> Nat.equal (Nat.add (Nat.of_int a) (Nat.of_int b)) (Nat.add (Nat.of_int b) (Nat.of_int a)))

let prop_int_semantics =
  (* operations agree with machine ints on small values *)
  QCheck.Test.make ~name:"nat agrees with int" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let na = Nat.of_int a and nb = Nat.of_int b in
      Nat.to_int_opt (Nat.add na nb) = Some (a + b)
      && Nat.to_int_opt (Nat.mul na nb) = Some (a * b)
      && (let q, r = Nat.divmod na nb in
          Nat.to_int_opt q = Some (a / b) && Nat.to_int_opt r = Some (a mod b)))

let big_nat_gen =
  (* naturals of up to ~300 bits from decimal digit strings *)
  QCheck.make
    ~print:Nat.to_string
    QCheck.Gen.(
      map
        (fun digits ->
          let s = String.concat "" (List.map string_of_int digits) in
          Nat.of_string (if s = "" then "0" else s))
        (list_size (int_range 1 90) (int_bound 9)))

let prop_divmod_reconstructs =
  QCheck.Test.make ~name:"divmod reconstructs" ~count:300
    QCheck.(pair big_nat_gen big_nat_gen)
    (fun (u, v) ->
      QCheck.assume (not (Nat.is_zero v));
      let q, r = Nat.divmod u v in
      Nat.equal u (Nat.add (Nat.mul q v) r) && Nat.compare r v < 0)

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:200
    QCheck.(triple big_nat_gen big_nat_gen big_nat_gen)
    (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:200 big_nat_gen (fun a ->
      Nat.equal a (Nat.of_string (Nat.to_string a)))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 big_nat_gen (fun a ->
      Nat.equal a (Nat.of_hex (Nat.to_hex a)))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200 big_nat_gen (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_shift_consistent =
  QCheck.Test.make ~name:"shift = mul/div by 2^k" ~count:200
    QCheck.(pair big_nat_gen (int_bound 100))
    (fun (a, k) ->
      let p2 = Nat.pow Nat.two k in
      Nat.equal (Nat.shift_left a k) (Nat.mul a p2)
      && Nat.equal (Nat.shift_right a k) (Nat.div a p2))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:200
    QCheck.(pair big_nat_gen big_nat_gen)
    (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero a) || not (Nat.is_zero b));
      let g = Nat.gcd a b in
      (not (Nat.is_zero g))
      && Nat.is_zero (Nat.rem a g)
      && Nat.is_zero (Nat.rem b g))

let prop_mod_pow_mul =
  (* a^(x+y) = a^x * a^y (mod m) *)
  QCheck.Test.make ~name:"mod_pow homomorphism" ~count:100
    QCheck.(triple (int_range 2 10000) (pair (int_bound 200) (int_bound 200)) (int_range 2 100000))
    (fun (a, (x, y), m) ->
      let a = Nat.of_int a and m = Nat.of_int m in
      let lhs = Nat.mod_pow a (Nat.of_int (x + y)) m in
      let rhs = Nat.rem (Nat.mul (Nat.mod_pow a (Nat.of_int x) m) (Nat.mod_pow a (Nat.of_int y) m)) m in
      Nat.equal lhs rhs)

let odd_modulus_gen =
  (* odd moduli >= 3 of up to ~300 bits, the Montgomery domain *)
  QCheck.map ~rev:Fun.id
    (fun n ->
      let n = if Nat.is_even n then Nat.add n Nat.one else n in
      if Nat.compare n (Nat.of_int 3) < 0 then Nat.of_int 3 else n)
    big_nat_gen

let prop_mont_matches_naive =
  QCheck.Test.make ~name:"Montgomery mod_pow = naive mod_pow" ~count:150
    QCheck.(triple big_nat_gen big_nat_gen odd_modulus_gen)
    (fun (b, e, m) ->
      Nat.equal (Nat.Mont.mod_pow (Nat.Mont.ctx m) b e) (Nat.mod_pow b e m))

(* Moduli of 1..40 limbs, built limb by limb so the generator reaches
   the widths RSA uses (15 limbs at 384 bits) and beyond.  A quarter are
   all-ones (every limb 2^26 - 1), which drives the kernel's column
   sums toward their bound. *)
let limb_max = (1 lsl 26) - 1

let of_limbs (limbs : int list) : Nat.t =
  (* most significant limb first *)
  List.fold_left
    (fun acc l -> Nat.add (Nat.shift_left acc 26) (Nat.of_int l))
    Nat.zero limbs

let wide_modulus_gen : Nat.t QCheck.Gen.t =
  QCheck.Gen.(
    int_range 1 40 >>= fun k ->
    frequency
      [ (1, return (of_limbs (List.init k (fun _ -> limb_max))));
        ( 3,
          map
            (fun limbs ->
              (* nonzero top limb, odd low limb, and > 1 *)
              let limbs = List.mapi (fun i l -> if i = 0 then max l 1 else l) limbs in
              let m = Nat.add (Nat.shift_left (Nat.shift_right (of_limbs limbs) 1) 1) Nat.one in
              if Nat.equal m Nat.one then Nat.of_int 3 else m)
            (list_repeat k (int_bound limb_max)) ) ])

(* Bases relative to the modulus: 0, 1, m - 1, m, m + 1 and random
   values up to two limbs wider than m (so mostly >= m). *)
let base_gen (m : Nat.t) : Nat.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [ return Nat.zero;
        return Nat.one;
        return (Nat.sub m Nat.one);
        return m;
        return (Nat.add m Nat.one);
        map of_limbs (list_size (int_range 1 (Nat.num_limbs m + 2)) (int_bound limb_max)) ])

(* Exponents 0, 1, all-ones of 1..300 bits, and random up to 32 limbs
   (832 bits, so every window width 2..5 is exercised). *)
let exponent_gen : Nat.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [ return Nat.zero;
        return Nat.one;
        map (fun w -> Nat.sub (Nat.shift_left Nat.one w) Nat.one) (int_range 1 300);
        map of_limbs (list_size (int_range 1 32) (int_bound limb_max)) ])

let print_case (b, e, m) =
  Printf.sprintf "b=%s e=%s m=%s" (Nat.to_hex b) (Nat.to_hex e) (Nat.to_hex m)

let prop_mont_wide_moduli =
  QCheck.Test.make ~name:"Montgomery mod_pow = naive on 1-40 limb moduli" ~count:150
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         wide_modulus_gen >>= fun m ->
         map2 (fun b e -> (b, e, m)) (base_gen m) exponent_gen))
    (fun (b, e, m) -> Nat.equal (Nat.Mont.mod_pow (Nat.Mont.ctx m) b e) (Nat.mod_pow b e m))

(* Moduli at the kernel's 64-bit limb edges, which limb-by-limb
   generators in base 2^26 reach only by chance: 64k - 1, 64k and
   64k + 1 bits for k = 1..16, each all-ones (2^64k - 1 among them),
   top and bottom bit only (2^64k + 1 among them), or random odd. *)
let random_bits_gen (w : int) : Nat.t QCheck.Gen.t =
 fun st -> Nat.random_bits ~rand:(fun k -> Random.State.int st (1 lsl k)) w

let limb_edge_modulus_gen : Nat.t QCheck.Gen.t =
  QCheck.Gen.(
    pair (int_range 1 16) (int_range (-1) 1) >>= fun (k, d) ->
    let w = (64 * k) + d in
    let top = Nat.shift_left Nat.one (w - 1) in
    oneof
      [ return (Nat.sub (Nat.shift_left Nat.one w) Nat.one);
        return (Nat.add top Nat.one);
        map
          (fun r -> Nat.add top (Nat.add (Nat.shift_left r 1) Nat.one))
          (random_bits_gen (w - 2)) ])

(* Bases 0, 1, m - 1, m, and random values up to 128 bits wider than
   m; exponents 0, 1, all-ones and random, up to 600 bits. *)
let limb_edge_case_gen : (Nat.t * Nat.t * Nat.t) QCheck.Gen.t =
  QCheck.Gen.(
    limb_edge_modulus_gen >>= fun m ->
    let base =
      oneof
        [ return Nat.zero;
          return Nat.one;
          return (Nat.sub m Nat.one);
          return m;
          int_range 1 128 >>= fun extra -> random_bits_gen (Nat.bits m + extra) ]
    in
    let exponent =
      oneof
        [ return Nat.zero;
          return Nat.one;
          map (fun w -> Nat.sub (Nat.shift_left Nat.one w) Nat.one) (int_range 1 600);
          int_range 1 600 >>= random_bits_gen ]
    in
    map2 (fun b e -> (b, e, m)) base exponent)

let prop_mont_limb_edges =
  QCheck.Test.make ~name:"Montgomery mod_pow = naive at 64-bit limb edges" ~count:200
    (QCheck.make ~print:print_case limb_edge_case_gen)
    (fun (b, e, m) -> Nat.equal (Nat.Mont.mod_pow (Nat.Mont.ctx m) b e) (Nat.mod_pow b e m))

(* The quadratic byte codecs the linear ones replaced, kept as the
   oracle: shift-and-add per input byte, one [testbit] per output bit.
   A round trip alone cannot catch a bug both directions share. *)
let legacy_of_bytes_be (s : string) : Nat.t =
  let acc = ref Nat.zero in
  String.iter (fun c -> acc := Nat.add (Nat.shift_left !acc 8) (Nat.of_int (Char.code c))) s;
  !acc

let legacy_to_bytes_be (a : Nat.t) : string =
  if Nat.is_zero a then "\000"
  else begin
    let nbytes = (Nat.bits a + 7) / 8 in
    String.init nbytes (fun i ->
        let byte_idx = nbytes - 1 - i in
        let b = ref 0 in
        for j = 7 downto 0 do
          b := (!b lsl 1) lor if Nat.testbit a ((byte_idx * 8) + j) then 1 else 0
        done;
        Char.chr !b)
  end

(* Empty strings, and 1..80 bytes behind 0..3 leading zero bytes. *)
let byte_string_gen : string QCheck.arbitrary =
  QCheck.make ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      frequency
        [ (1, return "");
          ( 9,
            map2
              (fun zeros body -> String.make zeros '\000' ^ body)
              (int_bound 3)
              (string_size ~gen:char (int_range 1 80)) ) ])

let prop_bytes_match_legacy =
  QCheck.Test.make ~name:"byte codecs = quadratic oracle" ~count:500 byte_string_gen
    (fun s ->
      let a = Nat.of_bytes_be s in
      Nat.equal a (legacy_of_bytes_be s) && Nat.to_bytes_be a = legacy_to_bytes_be a)

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200
    QCheck.(pair big_nat_gen big_nat_gen)
    (fun (a, b) -> Nat.compare a b = -Nat.compare b a)

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "add basics" `Quick test_add_basic;
    Alcotest.test_case "sub basics" `Quick test_sub_basic;
    Alcotest.test_case "mul known value" `Quick test_mul_known;
    Alcotest.test_case "divmod known value" `Quick test_divmod_known;
    Alcotest.test_case "divmod edge cases" `Quick test_divmod_edge_cases;
    Alcotest.test_case "mod_pow" `Quick test_mod_pow;
    Alcotest.test_case "shifts" `Quick test_shift;
    Alcotest.test_case "bits/testbit" `Quick test_bits_testbit;
    Alcotest.test_case "decimal strings" `Quick test_string_roundtrip;
    Alcotest.test_case "hex strings" `Quick test_hex_roundtrip;
    Alcotest.test_case "byte strings" `Quick test_bytes_roundtrip;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "montgomery rejects bad moduli" `Quick test_mont_rejects_bad_modulus;
    Alcotest.test_case "montgomery known values" `Quick test_mont_known_values;
    Alcotest.test_case "montgomery 512-limb bound" `Quick test_mont_limb_bound;
    Alcotest.test_case "montgomery steps allocate nothing" `Quick test_mont_no_alloc_per_step;
    Alcotest.test_case "bigint signs" `Quick test_bigint_signs;
    Alcotest.test_case "bigint truncated divmod" `Quick test_bigint_divmod_truncated;
    Alcotest.test_case "bigint egcd" `Quick test_bigint_egcd;
    Alcotest.test_case "bigint mod_inverse" `Quick test_bigint_mod_inverse ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_add_commutative;
        prop_int_semantics;
        prop_divmod_reconstructs;
        prop_mul_distributes;
        prop_string_roundtrip;
        prop_hex_roundtrip;
        prop_bytes_roundtrip;
        prop_shift_consistent;
        prop_gcd_divides;
        prop_mod_pow_mul;
        prop_mont_matches_naive;
        prop_mont_wide_moduli;
        prop_mont_limb_edges;
        prop_bytes_match_legacy;
        prop_compare_total_order ]
