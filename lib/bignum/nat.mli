(** Arbitrary-precision natural numbers.

    This module is the arithmetic substrate for the [Crypto] library
    (RSA signatures used by SeNDlog's authenticated [says]).  Values are
    immutable; all operations are purely functional. *)

type t
(** A natural number (>= 0). *)

val zero : t
val one : t
val two : t

val is_zero : t -> bool

val num_limbs : t -> int
(** Number of 26-bit limbs in the canonical representation. *)

val of_int : int -> t
(** [of_int i] converts a non-negative [int].
    @raise Invalid_argument if [i < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt a] is [Some i] when [a] fits in a native [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] computes [a - b].
    @raise Invalid_argument if [a < b]. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod u v] is [(q, r)] with [u = q*v + r] and [0 <= r < v]
    (Knuth algorithm D).  @raise Division_by_zero when [v] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val divmod_limb : t -> int -> t * int
(** Division by a single limb in [1, 2^26). *)

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m] by binary exponentiation. *)

val gcd : t -> t -> t

(** Montgomery modular arithmetic for a fixed odd modulus: the
    per-modulus constant (R^2 mod m) is computed once, after which
    modular exponentiation needs no division at all — the fast path
    under RSA sign/verify and Miller–Rabin. *)
module Mont : sig
  type ctx

  val ctx : t -> ctx
  (** Precompute the constant for one modulus.  The exponentiation
      kernel (C, over 64-bit limbs) keeps its buffers on the stack,
      which bounds the modulus to at most 512 limbs (13312 bits).
      @raise Invalid_argument unless the modulus is odd and [> 1], or
      if it is wider than 512 limbs. *)

  val modulus : ctx -> t

  val mod_pow : ctx -> t -> t -> t
  (** [mod_pow c b e] is [b^e mod (modulus c)] by sliding-window
      exponentiation in the Montgomery domain, byte-identical to
      {!Nat.mod_pow}.  Any [b] is accepted (it is reduced first); the
      steps allocate nothing, and domains may call it concurrently. *)
end

val pow : t -> int -> t
(** [pow b e] with a machine-integer exponent [e >= 0]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bits : t -> int
(** Position of the highest set bit plus one; [bits zero = 0]. *)

val testbit : t -> int -> bool
val is_even : t -> bool

val to_hex : t -> string

val of_hex : string -> t
(** Hexadecimal, most-significant digit first; underscores ignored. *)

val to_string : t -> string

val of_string : string -> t
(** Decimal, most-significant digit first; underscores ignored. *)

val to_bytes_be : t -> string
(** Minimal big-endian byte string; [to_bytes_be zero = "\000"]. *)

val of_bytes_be : string -> t
(** Big-endian; leading zero bytes are ignored and [""] is [zero]. *)

val random_bits : rand:(int -> int) -> int -> t
(** [random_bits ~rand n] draws a uniform natural below [2^n]; [rand k]
    must return a uniform int in [0, 2^k) for [k <= 26]. *)

val random_below : rand:(int -> int) -> t -> t
(** Uniform natural in [0, bound) by rejection sampling. *)

val pp : Format.formatter -> t -> unit
