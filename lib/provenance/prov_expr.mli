(** Provenance expressions: the free commutative semiring over base
    tuple keys (Section 4.4).

    A tuple's annotation is built during evaluation — {!times} across
    the body tuples of one derivation, {!plus} across alternative
    derivations — and later evaluated into any concrete semiring
    ({!eval}) or condensed into a BDD ({!Condense}). *)

type t =
  | Zero  (** annotation of absent / underivable tuples *)
  | One  (** empty product *)
  | Base of string  (** key of a base tuple or asserting principal *)
  | Plus of t * t  (** alternative derivations (union) *)
  | Times of t * t  (** joint use in one derivation (join) *)

val equal : t -> t -> bool
(** Structural equality; see {!canonical_string} for AC-insensitive
    comparison. *)

(** {1 Smart constructors}

    Apply the semiring identities (0+x = x, 1*x = x, 0*x = 0) so
    expressions stay small during evaluation. *)

val zero : t
val one : t
val base : string -> t
val plus : t -> t -> t
val times : t -> t -> t
val times_list : t list -> t
val plus_list : t list -> t

(** {1 Semiring evaluation} *)

val eval : (module Semiring.S with type t = 'a) -> assign:(string -> 'a) -> t -> 'a
(** Homomorphic evaluation into a semiring, mapping each base key
    through [assign]. *)

val bases : t -> string list
(** The distinct base keys appearing in the expression, sorted. *)

val derivable_from : trusted:(string -> bool) -> t -> bool
(** Boolean-semiring evaluation: is the tuple derivable using only
    trusted bases? *)

val count_derivations : t -> int
(** Number of distinct derivations (counting semiring). *)

val security_level : level:(string -> int) -> t -> int
(** Section 4.5: plus = max, times = min over the levels of asserting
    principals. *)

val minimal_why : t -> Semiring.String_set_set.t
(** Why-provenance with absorption applied — the set analogue of the
    BDD condensation of Section 4.4. *)

val vote_count : t -> principal_of:(string -> string option) -> principals:string list -> int
(** How many of [principals] assert the tuple on their own (Section
    4.5's "over K principals assert the update"). *)

(** {1 Rendering} *)

val to_string : t -> string
(** Paper syntax: [+] for union, [*] for join, e.g. ["a+a*b"]. *)

val to_annotation : t -> string
(** {!to_string} wrapped in angle brackets: ["<a+a*b>"]. *)

val canonical_string : t -> string
(** AC-canonical rendering: flatten each operator's operand list and
    sort the rendered operands, recursively, so two semantically equal
    annotations built in different orders print identically.  This is
    the byte-identity comparator used by the parallel-engine
    equivalence tests and the offline-traceback tests. *)

(** {1 Size} *)

val wire_size : t -> int
(** Size in bytes of the expression written uncondensed (a flattened
    prefix encoding: one tag byte per node, base keys length-prefixed
    with two bytes).  Storage accounting and traceback costs measure
    with it; what ships is the condensed BDD ({!Condense.to_wire}). *)
