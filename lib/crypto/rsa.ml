(* RSA signatures over SHA-256 digests.

   Substitute for the OpenSSL RSA signing the paper's modified P2 uses
   for authenticated communication (SeNDlog's [says]) and authenticated
   provenance.  Padding follows the PKCS#1 v1.5 layout (0x00 0x01 FF..
   0x00 || digest) but without the DER DigestInfo header; this is a
   simulation-grade scheme whose *cost profile* (one mod-exp per sign /
   verify, signature as wide as the modulus) matches real RSA, which is
   all the paper's evaluation depends on.

   Signing is CRT signing: two half-width Montgomery exponentiations
   mod p and q plus Garner recombination.  Verification is one
   Montgomery exponentiation mod n by e = 65537.  Each key carries the
   Montgomery contexts of its moduli, built once by [generate] or
   [public_of_string], so signing and verifying look nothing up.  Both
   produce the bytes a full-width [Nat.mod_pow] would, which the tests
   use as the oracle. *)

open Bignum

type public_key = { n : Nat.t; e : Nat.t; key_bits : int; n_ctx : Nat.Mont.ctx }

(* CRT private material retained by [generate]: exponents reduced mod
   p-1 / q-1, the Garner coefficient q^-1 mod p, and the Montgomery
   contexts of p and q. *)
type crt = {
  p : Nat.t;
  q : Nat.t;
  d_p : Nat.t;
  d_q : Nat.t;
  q_inv : Nat.t;
  p_ctx : Nat.Mont.ctx;
  q_ctx : Nat.Mont.ctx;
}

type private_key = { pub : public_key; d : Nat.t; crt : crt }

type keypair = { public : public_key; private_ : private_key }

let public_exponent = Nat.of_int 65537

(* Sign/verify wall-clock histograms (crypto.*_seconds in the shared
   registry): per-operation cost is what Section 6 attributes the
   SeNDlog time overhead to, so the runtime profiles it directly.  The
   handles are created at module initialization, on the main domain:
   created lazily, two worker domains could force the same handle at
   once, which OCaml 5 rejects with [CamlinternalLazy.Undefined]. *)
let sign_hist = Obs.Metrics.histogram Obs.Metrics.default "crypto.sign_seconds"
let verify_hist = Obs.Metrics.histogram Obs.Metrics.default "crypto.verify_seconds"
let keygen_hist = Obs.Metrics.histogram Obs.Metrics.default "crypto.keygen_seconds"

(* [generate rng ~bits] generates an RSA keypair with a [bits]-wide
   modulus.  Deterministic given the generator state. *)
let generate (rng : Rng.t) ~(bits : int) : keypair =
  if bits < 64 then invalid_arg "Rsa.generate: modulus too small";
  Obs.Metrics.timed keygen_hist @@ fun () ->
  let half = bits / 2 in
  let rec go () =
    let p = Prime.generate rng ~bits:half in
    let q = Prime.generate rng ~bits:(bits - half) in
    if Nat.equal p q then go ()
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.sub p Nat.one) (Nat.sub q Nat.one) in
      match
        Bigint.mod_inverse (Bigint.of_nat public_exponent) (Bigint.of_nat phi)
      with
      | None -> go () (* e not coprime with phi; extremely rare *)
      | Some d -> (
        let d = Bigint.to_nat_exn d in
        match Bigint.mod_inverse (Bigint.of_nat q) (Bigint.of_nat p) with
        | None -> go () (* distinct primes are coprime, so unreachable *)
        | Some q_inv ->
          let crt =
            { p;
              q;
              d_p = Nat.rem d (Nat.sub p Nat.one);
              d_q = Nat.rem d (Nat.sub q Nat.one);
              q_inv = Bigint.to_nat_exn q_inv;
              p_ctx = Nat.Mont.ctx p;
              q_ctx = Nat.Mont.ctx q }
          in
          let pub = { n; e = public_exponent; key_bits = bits; n_ctx = Nat.Mont.ctx n } in
          { public = pub; private_ = { pub; d; crt } })
    end
  in
  go ()

let signature_size (pub : public_key) : int = (pub.key_bits + 7) / 8

(* Deterministic PKCS#1-v1.5-style encoding of a digest into a natural
   just below the modulus. *)
let encode_digest (pub : public_key) (digest : string) : Nat.t =
  let k = signature_size pub in
  let dlen = String.length digest in
  if k < dlen + 11 then invalid_arg "Rsa.encode_digest: modulus too small";
  let padding = String.make (k - dlen - 3) '\xFF' in
  Nat.of_bytes_be ("\x00\x01" ^ padding ^ "\x00" ^ digest)

(* m^d mod n by CRT: half-width exponentiations mod p and q, then
   Garner recombination s = s_q + q * (q_inv (s_p - s_q) mod p). *)
let crt_power (c : crt) (m : Nat.t) : Nat.t =
  let s_p = Nat.Mont.mod_pow c.p_ctx m c.d_p in
  let s_q = Nat.Mont.mod_pow c.q_ctx m c.d_q in
  let s_q_mod_p = Nat.rem s_q c.p in
  let diff =
    if Nat.compare s_p s_q_mod_p >= 0 then Nat.sub s_p s_q_mod_p
    else Nat.sub (Nat.add s_p c.p) s_q_mod_p
  in
  let h = Nat.rem (Nat.mul c.q_inv diff) c.p in
  Nat.add s_q (Nat.mul h c.q)

(* Digest-level entry points: the wire hot path digests a message
   slice in place (no string materialization, and no double digest
   when the sender's sign cache is keyed by the same digest) and hands
   the 32 bytes here. *)
let sign_digest (priv : private_key) (digest : string) : string =
  Obs.Metrics.timed sign_hist @@ fun () ->
  let s = crt_power priv.crt (encode_digest priv.pub digest) in
  let raw = Nat.to_bytes_be s in
  (* Left-pad to the full modulus width so signatures have fixed size. *)
  let k = signature_size priv.pub in
  String.make (k - String.length raw) '\000' ^ raw

let sign (priv : private_key) (message : string) : string =
  sign_digest priv (Sha256.digest message)

let verify_digest (pub : public_key) ~(signature : string) (digest : string) : bool =
  Obs.Metrics.timed verify_hist @@ fun () ->
  String.length signature = signature_size pub
  && begin
       let s = Nat.of_bytes_be signature in
       Nat.compare s pub.n < 0
       && Nat.equal (Nat.Mont.mod_pow pub.n_ctx s pub.e) (encode_digest pub digest)
     end

let verify (pub : public_key) ~(signature : string) (message : string) : bool =
  verify_digest pub ~signature (Sha256.digest message)

(* Serialized public key, also used for fingerprints in wire messages. *)
let public_to_string (pub : public_key) : string =
  Printf.sprintf "rsa:%d:%s:%s" pub.key_bits (Nat.to_hex pub.n) (Nat.to_hex pub.e)

(* [None] for anything that is not a key: a malformed field, or a
   modulus [Nat.Mont.ctx] rejects (even, 1, or too wide). *)
let public_of_string (s : string) : public_key option =
  match String.split_on_char ':' s with
  | [ "rsa"; bits; n; e ] -> (
    match int_of_string_opt bits with
    | Some key_bits -> (
      try
        let n = Nat.of_hex n in
        Some { n; e = Nat.of_hex e; key_bits; n_ctx = Nat.Mont.ctx n }
      with Invalid_argument _ -> None)
    | None -> None)
  | _ -> None

let fingerprint (pub : public_key) : string =
  String.sub (Sha256.hex_digest (public_to_string pub)) 0 16
