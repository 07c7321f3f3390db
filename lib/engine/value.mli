(** Runtime values flowing through the dataflow.

    Node addresses are strings (like P2's IP:port identifiers); paths
    computed by Best-Path are lists of addresses.  The variant is kept
    concrete: the evaluator, wire codec and tests all pattern-match on
    it, and there is no invariant to protect. *)

type t =
  | V_int of int
  | V_float of float
  | V_bool of bool
  | V_str of string
  | V_list of t list

val compare : t -> t -> int
(** Total order.  Numeric values compare across representations
    ([V_int 2] equals [V_float 2.]), so mixed-arithmetic results
    deduplicate in the database. *)

val equal : t -> t -> bool

val hash : t -> int
(** Coherent with {!compare}: integers hash through their float image
    so cross-representation equals collide as required by the hashed
    tuple tables and secondary indexes. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val of_const : Ndlog.Ast.const -> t

val addr : string -> t
(** Address helpers: SeNDlog principals and NDlog locations are both
    string-valued. *)

val to_addr : t -> string
(** Raises [Invalid_argument] on a non-string value. *)

val wire_size : t -> int
(** Serialized size in bytes, matching [Net.Wire]'s encoding (1 tag
    byte plus payload); the basis of the bandwidth accounting. *)
