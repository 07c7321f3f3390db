(* Bandwidth and message accounting across a simulated run.

   Figure 4 plots "the total combined bandwidth usage across all nodes
   required for executing the distributed query", which we compute by
   summing the encoded size of every message sent, broken down into
   header / payload / authentication / provenance bytes so ablations
   can attribute the overheads.

   Both directions are tracked for the whole network: sent and
   received messages and bytes, plus signature work and dropped forged
   messages.  Every record_* call also feeds the shared [Obs.Metrics]
   registry (wire.* series), which is what `psn run --metrics`
   snapshots. *)

type t = {
  mutable messages : int;
  mutable bytes_total : int;
  mutable bytes_header : int;
  mutable bytes_payload : int;
  mutable bytes_auth : int;
  mutable bytes_provenance : int;
  mutable messages_received : int;
  mutable bytes_received : int;
  mutable signatures_generated : int;
  mutable signatures_verified : int;
  mutable verification_failures : int;
  mutable dropped_forged : int; (* forged messages discarded by receivers *)
  (* Fault-injection / reliable-delivery accounting. *)
  mutable drops : int; (* messages lost in transit (faults or crashed dst) *)
  mutable dups : int; (* extra copies the faulty network delivered *)
  mutable retransmits : int; (* data messages re-sent by the reliable layer *)
  mutable acks : int; (* acknowledgements sent *)
  mutable retry_exhausted : int; (* sends abandoned after the retry cap *)
  c_messages : Obs.Metrics.counter;
  c_bytes : Obs.Metrics.counter;
  c_bytes_auth : Obs.Metrics.counter;
  c_bytes_prov : Obs.Metrics.counter;
  c_received : Obs.Metrics.counter;
  c_sigs : Obs.Metrics.counter;
  c_verifs : Obs.Metrics.counter;
  c_verif_failures : Obs.Metrics.counter;
  c_dropped_forged : Obs.Metrics.counter;
  c_drops : Obs.Metrics.counter;
  c_dups : Obs.Metrics.counter;
  c_retransmits : Obs.Metrics.counter;
  c_acks : Obs.Metrics.counter;
  c_retry_exhausted : Obs.Metrics.counter;
  mu : Mutex.t;
      (* record_* calls race between the sharded engine's
         worker domains (signing/verification accounting happens
         inside node handlers); readers run between batches *)
}

let create () =
  let reg = Obs.Metrics.default in
  { mu = Mutex.create ();
    messages = 0;
    bytes_total = 0;
    bytes_header = 0;
    bytes_payload = 0;
    bytes_auth = 0;
    bytes_provenance = 0;
    messages_received = 0;
    bytes_received = 0;
    signatures_generated = 0;
    signatures_verified = 0;
    verification_failures = 0;
    dropped_forged = 0;
    drops = 0;
    dups = 0;
    retransmits = 0;
    acks = 0;
    retry_exhausted = 0;
    c_messages = Obs.Metrics.counter reg "wire.messages";
    c_bytes = Obs.Metrics.counter reg "wire.bytes_total";
    c_bytes_auth = Obs.Metrics.counter reg "wire.bytes_auth";
    c_bytes_prov = Obs.Metrics.counter reg "wire.bytes_provenance";
    c_received = Obs.Metrics.counter reg "wire.messages_received";
    c_sigs = Obs.Metrics.counter reg "crypto.signatures_generated";
    c_verifs = Obs.Metrics.counter reg "crypto.signatures_verified";
    c_verif_failures = Obs.Metrics.counter reg "crypto.verification_failures";
    c_dropped_forged = Obs.Metrics.counter reg "wire.dropped_forged";
    c_drops = Obs.Metrics.counter reg "net.drops";
    c_dups = Obs.Metrics.counter reg "net.dups";
    c_retransmits = Obs.Metrics.counter reg "net.retransmits";
    c_acks = Obs.Metrics.counter reg "net.acks";
    c_retry_exhausted = Obs.Metrics.counter reg "net.retry_exhausted" }

let record_message (t : t) (m : Wire.message) : unit =
  let sb = Wire.size_breakdown m in
  let total = Wire.total sb in
  Mutex.lock t.mu;
  t.messages <- t.messages + 1;
  t.bytes_header <- t.bytes_header + sb.sb_header;
  t.bytes_payload <- t.bytes_payload + sb.sb_payload;
  t.bytes_auth <- t.bytes_auth + sb.sb_auth;
  t.bytes_provenance <- t.bytes_provenance + sb.sb_provenance;
  t.bytes_total <- t.bytes_total + total;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_messages;
  Obs.Metrics.inc ~by:total t.c_bytes;
  Obs.Metrics.inc ~by:sb.sb_auth t.c_bytes_auth;
  Obs.Metrics.inc ~by:sb.sb_provenance t.c_bytes_prov

(* Called when a receiver actually processes a delivered message. *)
let record_received (t : t) (m : Wire.message) : unit =
  let total = Wire.total (Wire.size_breakdown m) in
  Mutex.lock t.mu;
  t.messages_received <- t.messages_received + 1;
  t.bytes_received <- t.bytes_received + total;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_received

let record_signature (t : t) =
  Mutex.lock t.mu;
  t.signatures_generated <- t.signatures_generated + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_sigs

let record_verification (t : t) ~ok =
  Mutex.lock t.mu;
  t.signatures_verified <- t.signatures_verified + 1;
  if not ok then t.verification_failures <- t.verification_failures + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_verifs;
  if not ok then Obs.Metrics.inc t.c_verif_failures

let record_forged (t : t) =
  Mutex.lock t.mu;
  t.dropped_forged <- t.dropped_forged + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_dropped_forged

let record_drop (t : t) =
  Mutex.lock t.mu;
  t.drops <- t.drops + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_drops

let record_dup (t : t) =
  Mutex.lock t.mu;
  t.dups <- t.dups + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_dups

let record_retransmit (t : t) =
  Mutex.lock t.mu;
  t.retransmits <- t.retransmits + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_retransmits

let record_ack (t : t) =
  Mutex.lock t.mu;
  t.acks <- t.acks + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_acks

let record_retry_exhausted (t : t) =
  Mutex.lock t.mu;
  t.retry_exhausted <- t.retry_exhausted + 1;
  Mutex.unlock t.mu;
  Obs.Metrics.inc t.c_retry_exhausted

let megabytes (t : t) : float = float_of_int t.bytes_total /. (1024.0 *. 1024.0)

let to_string (t : t) : string =
  Printf.sprintf
    "messages=%d total=%dB (header=%d payload=%d auth=%d prov=%d) received=%d/%dB \
     sigs=%d verifs=%d fails=%d dropped_forged=%d"
    t.messages t.bytes_total t.bytes_header t.bytes_payload t.bytes_auth
    t.bytes_provenance t.messages_received t.bytes_received t.signatures_generated
    t.signatures_verified t.verification_failures t.dropped_forged
  ^
  if t.drops + t.dups + t.retransmits + t.acks + t.retry_exhausted = 0 then ""
  else
    Printf.sprintf " drops=%d dups=%d retransmits=%d acks=%d retry_exhausted=%d"
      t.drops t.dups t.retransmits t.acks t.retry_exhausted
