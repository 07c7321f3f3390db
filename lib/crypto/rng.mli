(** Deterministic pseudo-random generator (SplitMix64).

    Every source of randomness in the repository — topologies, key
    generation, workloads — flows from a seeded generator, so
    experiments are reproducible run to run.  Not cryptographically
    secure (see the caveat in DESIGN.md). *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent child generator (advances the parent). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n).  @raise Invalid_argument if
    [n <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)

val nat_rand : t -> int -> int
(** Adapter with the signature {!Bignum.Nat.random_bits} expects. *)
