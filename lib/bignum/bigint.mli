(** Signed arbitrary-precision integers layered on {!Nat}.

    Used by the crypto layer for extended-gcd / modular-inverse in RSA
    key generation. *)

type t

val zero : t

val of_nat : Nat.t -> t

val to_nat_exn : t -> Nat.t
(** @raise Invalid_argument on negative values. *)

val of_int : int -> t

val sign_int : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division (round toward zero); remainder carries the sign
    of the dividend.  @raise Division_by_zero. *)

val egcd : t -> t -> t * t * t
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd a b >= 0]. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)], [x] in
    [0, m), or [None] when [a] and [m] are not coprime. *)

val pp : Format.formatter -> t -> unit
