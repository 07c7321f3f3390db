(** Unified provenance-query entry point (the API behind [psn trace]).

    Every way of asking "where did this tuple come from" — live
    distributed traceback (Section 4.1), the offline walk over the
    persisted log, and the sampled approximations of Section 5.2 —
    answers the same {!query} record. *)

type target =
  | Tuple_id of string  (** tuple identity, e.g. ["path(a,c,2)"] *)
  | Relation of string  (** every recorded tuple of the relation *)

type backend =
  | Live of Runtime.t  (** walk the running nodes' provenance stores *)
  | Disk of Store.Prov_log.t  (** walk full records in the offline log *)
  | Sampled of Store.Prov_log.t
      (** Bloom-digest prefilter + random moonwalk over sampled flows *)

type query = {
  q_target : target;
  q_before : float option;
      (** offline backends: only use log data stamped at or before
          this time *)
  q_granularity : Config.granularity option;
      (** offline backends; [None] means node level.  The live
          backend always answers at the runtime's configured
          granularity. *)
  q_backend : backend;
}

type finding = {
  f_node : string;  (** node the walk was rooted at *)
  f_ident : string;
  f_result : Traceback.result;
}

type answer =
  | Trees of finding list
      (** one finding per (node, identity) the target resolves to *)
  | Suspects of {
      prefilter : string list;
          (** nodes whose persisted Bloom digests claim the target
              around the times it flowed (sorted) *)
      suspects : (string * int) list;
          (** moonwalk origins, most-hit first *)
    }

val run : ?rng:Crypto.Rng.t -> ?walks:int -> ?max_hops:int -> query -> answer
(** Execute a query.  [rng]/[walks]/[max_hops] only affect the
    [Sampled] backend (defaults: a fixed-seed RNG, 200 walks, 32
    hops).  Sampled queries update the [forensics.bloom_prefilter_*]
    and [forensics.sampled_query_walks] counters. *)

(** {1 Rendering} *)

val tree_to_json : Provenance.Derivation.t -> Obs.Json.t
val answer_to_json : answer -> Obs.Json.t
