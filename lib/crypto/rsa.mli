(** RSA signatures over SHA-256 digests — the substitute for the
    OpenSSL signing the paper's modified P2 performs on every
    inter-node tuple (SeNDlog's authenticated [says]) and on
    provenance nodes (Section 4.3).

    Simulation-grade: deterministic PKCS#1-v1.5-style padding without
    the DER DigestInfo header, no blinding, no constant-time
    guarantees.  The cost profile (one modular exponentiation per
    sign/verify, signature as wide as the modulus) matches real RSA,
    which is what the paper's evaluation depends on.

    Signing is CRT signing (two half-width Montgomery exponentiations
    plus Garner recombination) and verification one Montgomery
    exponentiation mod n; both give the bytes a full-width
    [Nat.mod_pow] would, which the tests use as the oracle.  Keys carry
    the Montgomery contexts of their moduli, built when the key is
    generated or parsed. *)

type public_key = {
  n : Bignum.Nat.t;
  e : Bignum.Nat.t;
  key_bits : int;
  n_ctx : Bignum.Nat.Mont.ctx; (** Montgomery context of [n] *)
}

type crt = {
  p : Bignum.Nat.t;
  q : Bignum.Nat.t;
  d_p : Bignum.Nat.t; (** d mod (p-1) *)
  d_q : Bignum.Nat.t; (** d mod (q-1) *)
  q_inv : Bignum.Nat.t; (** q^-1 mod p (Garner coefficient) *)
  p_ctx : Bignum.Nat.Mont.ctx; (** Montgomery context of [p] *)
  q_ctx : Bignum.Nat.Mont.ctx; (** Montgomery context of [q] *)
}

type private_key = { pub : public_key; d : Bignum.Nat.t; crt : crt }

type keypair = { public : public_key; private_ : private_key }

val generate : Rng.t -> bits:int -> keypair
(** Deterministic given the generator state.  The private key retains
    the CRT material (p, q, d_p, d_q, q_inv).  The modulus must leave
    room for the padded digest: [bits >= 344] in practice for SHA-256.
    @raise Invalid_argument when [bits < 64]. *)

val signature_size : public_key -> int
(** Signature width in bytes (the modulus width). *)

val sign : private_key -> string -> string
(** Sign the SHA-256 digest of the message; fixed-width output. *)

val sign_digest : private_key -> string -> string
(** Sign an already-computed 32-byte SHA-256 digest.  The wire hot
    path digests a message slice in place and keys the sender's sign
    cache by the same digest, so nothing is hashed twice. *)

val verify : public_key -> signature:string -> string -> bool

val verify_digest : public_key -> signature:string -> string -> bool
(** Verify against an already-computed 32-byte SHA-256 digest. *)

val public_to_string : public_key -> string
val public_of_string : string -> public_key option
(** [None] for a malformed string, or a modulus {!Bignum.Nat.Mont.ctx}
    rejects. *)

val fingerprint : public_key -> string
(** 16-hex-character key fingerprint. *)

val encode_digest : public_key -> string -> Bignum.Nat.t
(** The deterministic padding, exposed for tests. *)
