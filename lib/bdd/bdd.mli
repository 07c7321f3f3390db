(** Reduced ordered binary decision diagrams (Bryant 1986).

    Substitute for the BuDDy library the paper uses to encode
    condensed provenance (Section 4.4).  All nodes live inside a
    {!manager} and are hash-consed, so semantically equal functions
    are physically equal ({!equal} is O(1)) and absorption — the
    condensation [<a+a*b>] → [<a>] — happens by construction. *)

type t
(** A boolean function over integer-numbered variables. *)

type manager
(** Owns the unique-node table, operation caches, and the mapping
    between variable numbers and names.  Functions from different
    managers must not be mixed. *)

val create_manager : unit -> manager

val bot : t
(** The constant false. *)

val top : t
(** The constant true. *)

val var : manager -> int -> t
(** The projection function of variable [i]. *)

val named_var : manager -> string -> t
(** The variable registered under [name], allocating a fresh variable
    number on first use (provenance keys variables by principal or
    base-tuple name). *)

val var_of_name : manager -> string -> int
val name_of_var : manager -> int -> string

val mk : manager -> var:int -> lo:t -> hi:t -> t
(** Hash-consing node constructor; callers must respect the variable
    order (children's variables strictly greater than [var]). *)

val band : manager -> t -> t -> t
val bor : manager -> t -> t -> t
val bnot : manager -> t -> t

val equal : t -> t -> bool
(** Semantic equality (constant time thanks to hash-consing). *)

val is_true : t -> bool
val is_false : t -> bool

val restrict : manager -> t -> int -> bool -> t
(** [restrict m f v b] fixes variable [v] to [b]. *)

val exists : manager -> t -> int -> t
(** Existential quantification of one variable. *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under a total assignment. *)

val support : t -> int list
(** Variables the function depends on, ascending. *)

val size : t -> int
(** Internal node count (the paper's storage-size proxy). *)

val sat_count : t -> nvars:int -> float
(** Satisfying assignments over an [nvars]-variable space. *)

val any_sat : t -> (int * bool) list option
(** One satisfying path, or [None] for the constant false. *)

val all_cubes : t -> (int * bool) list list
(** Every path to true, as (variable, polarity) literals. *)

val positive_cubes : t -> int list list
(** Minimal positive sum-of-products cover; exact for the monotone
    functions provenance expressions produce. *)

val to_annotation : manager -> t -> string
(** The paper's [<a+a*b>]-style annotation of the minimal cover. *)

val serialize : t -> string
(** Node table in post-order plus root reference; input of
    {!deserialize}. *)

val serialized_size : t -> int

exception Deserialize_error of string

val deserialize : manager -> string -> t
(** Rebuild a serialized function inside [manager] (ids remapped
    through hash-consing; the serialized variable order must be
    compatible with the manager's).
    @raise Deserialize_error on malformed input. *)

val deserialize_sub : manager -> string -> pos:int -> len:int -> t
(** {!deserialize} over a sub-range, so a wire decoder can hand its
    receive buffer over directly instead of copying the BDD tail out
    first.  @raise Deserialize_error on malformed input or a range
    outside the buffer. *)

val id : t -> int
(** Stable node identifier within the owning manager (0 and 1 are the
    constants); exposed for external memo tables. *)
