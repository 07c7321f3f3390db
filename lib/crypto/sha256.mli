(** SHA-256 (FIPS 180-4), verified against the FIPS test vectors in
    the test suite.  Used for message digests under RSA signatures,
    HMAC, Bloom-filter hashing, and deterministic sampling. *)

type ctx
(** Streaming context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Feed a [Bytes] sub-range without copying (the bytes are only read,
    and only before the call returns); block-aligned input is
    compressed straight out of the caller's buffer.  Raises
    [Invalid_argument] if the range is outside the buffer. *)

val finalize : ctx -> string
(** The 32-byte digest; the context must not be reused. *)

val digest : string -> string
(** One-shot 32-byte digest. *)

val digest_bytes : Bytes.t -> pos:int -> len:int -> string
(** One-shot digest of a [Bytes] sub-range; the zero-copy path for
    signing and verifying wire slices. *)

val hex_digest : string -> string
(** One-shot digest in lowercase hex. *)

val to_hex : string -> string
(** Hex-encode arbitrary bytes (e.g. a digest). *)
