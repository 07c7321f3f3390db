(** Forensics (Sections 3 and 5): ForNet-style Bloom digests,
    IP-traceback-style sampling, and random moonwalks — the
    storage/accuracy trade-offs the paper surveys for historical
    traffic in place of full per-packet provenance. *)

(** {1 ForNet-style Bloom digests} *)

type digest_store

val create_digests :
  ?epoch_seconds:float ->
  ?expected_per_epoch:int ->
  ?fp_rate:float ->
  unit ->
  digest_store

val epoch_of : digest_store -> float -> int

val record : digest_store -> node:string -> time:float -> string -> unit
(** Record that [node] forwarded an item (packet/tuple identity). *)

val query : digest_store -> time:float -> string -> string list
(** Which nodes claim to have forwarded the key during the epoch
    covering [time]?  Bloom semantics: possible false positives, no
    false negatives.  Sorted. *)

val storage_bytes : digest_store -> int

(** {1 IP-traceback-style sampling (Savage et al.)} *)

type traceback_sim = {
  ts_recovered : string list;  (** routers seen in marks, sorted *)
  ts_complete : bool;
  ts_packets_needed : int option;
      (** packets until the full path was recovered *)
}

val simulate_traceback :
  Crypto.Rng.t ->
  path:string list ->
  mark_probability:float ->
  n_packets:int ->
  traceback_sim
(** Push [n_packets] along [path], each router marking with
    probability [mark_probability]; report what the victim recovers. *)

(** {1 Random moonwalks (Xie et al.)} *)

type flow = { fl_src : string; fl_dst : string; fl_time : float }

val random_moonwalk :
  Crypto.Rng.t -> flows:flow list -> walks:int -> max_hops:int -> (string * int) list
(** Repeated backward random walks over the flow graph concentrate at
    the attack origin; returns (origin, hits), most-hit first. *)
