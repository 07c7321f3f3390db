(** A ground tuple: relation name plus argument values.

    The record is exposed (the evaluator and wire codec destructure
    it), but [args] must be treated as immutable once a tuple has been
    inserted into a {!Db.t}: database indexes, provenance stores and
    the reliable-delivery dedup tables all key on {!identity}/{!hash},
    and mutating an interned tuple would corrupt every one of them. *)

type t = {
  rel : string;
  args : Value.t array;
}

val make : string -> Value.t list -> t
val arity : t -> int

val arg : t -> int -> Value.t
(** Raises [Invalid_argument] when the position is out of range. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Coherent with {!equal} (via {!Value.hash}'s cross-representation
    numeric coherence). *)

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
(** Canonical string identity: BDD variable name for base tuples,
    Bloom-filter key, send-dedup key. *)

val wire_size : t -> int
(** Wire size of the tuple payload, matching [Net.Wire]. *)

module Hashed : Hashtbl.HashedType with type t = t
module Table : Hashtbl.S with type key = t

(** {1 Hash-consing}

    Tuples intern into dense integer ids (with the {!identity} string
    rendered once and cached), so dedup tables, index keys and
    Bloom-filter keys compare machine ints instead of re-stringifying
    the tuple.  The interner is global, append-only, and mutex-guarded:
    worker domains of the sharded engine may intern newly
    derived tuples concurrently. *)

val id : t -> int
(** [equal a b] iff [id a = id b]; distinct tuples get distinct ids. *)

val interned_identity : t -> string
(** Same string as {!identity}, but rendered once per distinct tuple
    and cached in the interner. *)

val interned_count : unit -> int
(** Number of distinct tuples interned so far (diagnostics/tests). *)
