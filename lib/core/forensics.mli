(** Forensics (Sections 3 and 5): IP-traceback-style sampling and
    random moonwalks — storage/accuracy trade-offs the paper surveys
    for historical traffic in place of full per-packet provenance.
    ForNet-style Bloom digests and the sampled flow records the
    moonwalk walks live in the provenance log ([Store.Prov_log]). *)

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

val random_moonwalk :
  Crypto.Rng.t ->
  flows:Store.Prov_log.flow list ->
  walks:int ->
  max_hops:int ->
  (string * int) list
(** Repeated backward random walks over the flow graph concentrate at
    the attack origin; returns (origin, hits), most-hit first. *)
