(** A ground tuple: relation name plus argument values.

    The record is private: the evaluator and wire codec read its
    fields, but only {!make} and {!of_array} build one.  They compute
    the tuple's {!hash} once and store it, so every table keyed on
    tuples reads a field instead of walking the arguments.  [args]
    must be treated as immutable: a mutated tuple would disagree with
    its stored hash, and every database index, provenance store and
    dedup table holding it would lose it. *)

type t = private {
  rel : string;
  args : Value.t array;
  hash : int;  (** {!hash}, computed at construction *)
}

val make : string -> Value.t list -> t

val of_array : string -> Value.t array -> t
(** Takes ownership of the array: the caller must not mutate it
    afterwards. *)

val arity : t -> int

val arg : t -> int -> Value.t
(** Raises [Invalid_argument] when the position is out of range. *)

val compare : t -> t -> int

val equal : t -> t -> bool
(** Returns early on physical equality and on unequal hashes. *)

val hash : t -> int
(** The stored hash: the relation name's hash folded with
    {!Value.hash} of each argument.  Coherent with {!equal} (via
    {!Value.hash}'s cross-representation numeric coherence). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val key_of : t -> int list -> Value.t list
(** Projection of the key columns, used by keyed (replace-semantics)
    relations.  Raises on out-of-range positions. *)

val key_opt : t -> int list -> Value.t list option
(** Like {!key_of} but total: [None] when a position is out of range,
    so secondary indexes skip tuples the column subset doesn't
    project. *)

val identity : t -> string
(** Canonical string identity, rendered on each call: log frames,
    flow and Bloom-filter keys, traceback answers and fault-verdict
    seeds.  In-memory tables key on the tuple itself. *)

val wire_size : t -> int
(** Wire size of the tuple payload, matching [Net.Wire]. *)

module Hashed : Hashtbl.HashedType with type t = t
module Table : Hashtbl.S with type key = t

module Addr_table : Hashtbl.S with type key = string * t
(** Tables keyed on (node address, tuple): a tuple sent to, or held
    at, one node. *)
