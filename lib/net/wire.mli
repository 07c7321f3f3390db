(** Wire format for inter-node messages, with byte-accurate encoding.

    The bandwidth numbers of Figure 4 are computed from the encoded
    size of every message a run ships: a fixed header, the tuple
    payload, and — depending on the configuration — an authentication
    block (a cleartext principal or an RSA signature) and a
    condensed-provenance block.  RSA signatures are computed over the
    canonical {!signed_bytes} encoding.

    The primitive put/get codecs and the reader state are internal;
    the public surface is whole-tuple and whole-message codecs. *)

type auth =
  | A_none
  | A_principal of string
      (** benign world: cleartext principal header *)
  | A_signature of { principal : string; signature : string }

(** Data messages carry tuples; retractions withdraw a previously sent
    tuple (incremental deletion); ACKs acknowledge a data or retract
    message's per-channel sequence number for the reliable-delivery
    layer. *)
type kind =
  | K_data
  | K_retract
  | K_ack

type message = {
  msg_kind : kind;
  msg_src : string;
  msg_dst : string;
  msg_seq : int;  (** per-(src,dst) channel sequence number; for an
                      ACK, the acknowledged data sequence number *)
  msg_tuple : Engine.Tuple.t;
  msg_auth : auth;
  msg_provenance : string option;  (** serialized condensed provenance *)
  msg_trace : (int * int) option;
      (** causal trace context (trace id, sending span id).  Rides
          outside {!signed_bytes} like [msg_seq], so enabling tracing
          never invalidates signatures; it is an observability side
          channel excluded from the modeled {!size} and
          {!size_breakdown}, so a traced run's virtual timeline — and
          therefore its fixpoint — is byte-identical to the untraced
          run's.  See DESIGN.md §9. *)
}

val encode_tuple : Engine.Tuple.t -> string

val write_tuple : Arena.t -> Engine.Tuple.t -> unit
(** Append a tuple's encoding to an arena (same bytes as
    {!encode_tuple}). *)

val tuple_wire_size : Engine.Tuple.t -> int
(** [String.length (encode_tuple t)], computed without encoding: the
    one tuple size behind bandwidth, traceback and storage
    accounting. *)

exception Decode_error of string

val decode_tuple : string -> Engine.Tuple.t
(** Raises {!Decode_error} on truncated or malformed input. *)

val decode_tuple_slice : Arena.slice -> Engine.Tuple.t
(** Zero-copy decode out of a slice; same errors as {!decode_tuple}. *)

val signed_slice :
  Arena.t -> src:string -> dst:string -> Engine.Tuple.t -> Arena.slice
(** Write the canonical signed bytes (see {!signed_bytes}) into a
    caller-supplied arena — typically the domain's [Arena.scratch] —
    and return a zero-copy view of them, so the hot path signs and
    verifies without materializing a string. *)

val retract_signed_slice :
  Arena.t -> src:string -> dst:string -> Engine.Tuple.t -> Arena.slice
(** Arena form of {!retract_signed_bytes}. *)

val signed_bytes : src:string -> dst:string -> Engine.Tuple.t -> string
(** Canonical bytes that authentication covers: source, destination
    and the tuple payload.  Deliberately *excludes* the sequence
    number, so a retransmitted message carries the identical signature
    as the original (and identical tuples can share signature work via
    the sender-side sign cache).  Changing this breaks reliable
    delivery under signatures — retransmits would need re-signing. *)

val retract_signed_bytes : src:string -> dst:string -> Engine.Tuple.t -> string
(** Canonical bytes a retraction's authentication covers: a
    ["retract|"] domain-separation prefix over {!signed_bytes}, so a
    captured assertion's signature can never be replayed as a
    retraction of the same tuple (or vice versa). *)

val encode_message : message -> string

val decode_message : string -> message
(** Inverse of {!encode_message}.  Raises {!Decode_error} on
    truncation, bad tags, or trailing bytes. *)

val decode_message_slice : Arena.slice -> message
(** Zero-copy decode out of a slice; same errors as
    {!decode_message}. *)

val trace_bytes : message -> int
(** Encoded bytes the trace context adds beyond its presence tag
    (0 when absent, 8 when present). *)

val size : message -> int
(** The *modeled* message size:
    [String.length (encode_message m) - trace_bytes m].  Bandwidth
    accounting and the cost model charge this size, so the trace
    context never perturbs the simulated run it observes. *)

(** Size breakdown for the bandwidth accounting: how many bytes are
    base header/payload vs authentication vs provenance. *)
type size_breakdown = {
  sb_header : int;
  sb_payload : int;
  sb_auth : int;
  sb_provenance : int;
}

val size_breakdown : message -> size_breakdown
val total : size_breakdown -> int

val ack : src:string -> dst:string -> seq:int -> message
(** A minimal acknowledgement for the reliable-delivery layer.  ACKs
    are unauthenticated (they carry no tuple an adversary could
    smuggle into a database) and provenance-free; [seq] names the
    acknowledged data message on the (dst -> src) channel. *)
