(** Support graph for incremental deletion (DRed).

    Records every derivation found by the fixpoint — locally inserted
    heads, heads emitted to other nodes, and candidates rejected by a
    keyed relation's replace policy — so a retraction pass can
    over-delete dependents and re-derive survivors without consulting
    the (configuration-gated) provenance store.  One instance per
    node, owned by [Core.Runtime]. *)

type entry = private {
  sp_rule : string;  (** rule that fired *)
  sp_head : Tuple.t;  (** derived head tuple *)
  sp_dest : string option;
      (** [None] = head was local; [Some d] = emitted to node [d] *)
  sp_body : (Tuple.t * Value.t option) list;
      (** positive body matches with the asserter consumed by a
          [says] literal, if any *)
  sp_key : int array;  (** internal dedup key *)
}

type t

val create : unit -> t

val record :
  t ->
  rule:string ->
  head:Tuple.t ->
  dest:string option ->
  body:(Tuple.t * Value.t option) list ->
  unit
(** Record one derivation; duplicates (same rule, head, destination
    and body-with-asserters) are ignored. *)

val entries_of : t -> Tuple.t -> entry list
(** Derivations producing this tuple as head. *)

val dependents_of : t -> Tuple.t -> entry list
(** Derivations consuming this tuple in their body. *)

val mem_entry : t -> entry -> bool
(** Whether the entry is still recorded (not yet removed). *)

val remove_entry : t -> entry -> unit

val iter_heads_of_rel : t -> string -> (Tuple.t -> unit) -> unit
(** Iterate each distinct recorded head tuple of one relation. *)
