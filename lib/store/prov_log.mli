(** Append-only on-disk provenance log — the paper's *offline*
    provenance (Sections 3, 4.2, 5.2).

    Retired (expired) tuples' provenance is written through here by
    [Core.Prov_store], together with optional live-tuple checkpoints,
    so forensic traceback works after tuples expire and across
    process restarts.  A record carries the tuple, its senders and its
    derivations; offline traceback computes the expression from them,
    and the log stores none (frames of older logs carry an expression
    block, which the reader skips).  The log is also the only store of
    1/K-sampled flows and per-(node, epoch) Bloom digests.

    A log is a directory: a [MANIFEST] naming the ordered live
    segments (always replaced by tmp + atomic rename) and
    size-bounded binary segment files of checksummed frames.  The
    frames are the only copy of what the log knows: {!open_log}
    rebuilds the index, flows and digests from every frame whose
    checksum passes.  Recovery tolerates a torn tail (the invalid
    suffix is truncated at open) and crashes at any point of
    compaction (orphan tmp files and unlisted segments are swept at
    open).  See DESIGN.md §12.

    All operations are mutex-guarded; the retire write-through runs
    on the runtime's worker domains. *)

type origin =
  | Local
  | Remote of string  (** received from / derived through this address *)

type body_item = {
  b_tuple : Engine.Tuple.t;
  b_origin : origin;
  b_says : string option;
}

(** One derivation alternative.  [Core.Prov_store] holds live
    derivations as this same record, so one traceback walk reads the
    live stores and the log alike. *)
type deriv = {
  d_rule : string;
  d_at : float;
  d_signer : string option;
  d_signature : string option;
  d_body : body_item list;
}

val node_repr : Engine.Tuple.t -> deriv -> string
(** What a derivation's [d_signature] signs (Section 4.3):
    ["head<-rule[body;...]"] over the identities of the head and of
    the derivation's bodies. *)

(** What the log knows of one tuple at one node when it retired (or
    was checkpointed). *)
type record = {
  r_node : string;  (** node address that held the tuple *)
  r_domain : string;  (** AS-domain base key of that node, e.g. ["as3"] *)
  r_live : bool;  (** live checkpoint, not a retirement *)
  r_at : float;  (** expiry time ('R') or checkpoint time ('L') *)
  r_tuple : Engine.Tuple.t;
  r_received_from : string list;  (** newest first, as in the live store *)
  r_derivs : deriv list;  (** newest first, as in the live store *)
}

(** A 1/K-sampled data flow (src shipped the tuple [fl_ident] to dst
    at [fl_time]); the edge set random-moonwalk traceback walks. *)
type flow = {
  fl_src : string;
  fl_dst : string;
  fl_time : float;
  fl_ident : string;
}

type t

exception Corrupt of string
(** A frame that passed the checksum but fails to decode (raised by
    queries, never by [open_log], which skips bad frames). *)

exception Crash_injected of string
(** Raised by {!compact} when its [crash_after] test hook fires; the
    handle is closed as if the process had died. *)

val open_log :
  ?segment_bytes:int ->
  ?compact_threshold:int ->
  ?epoch_seconds:float ->
  ?digest_expected:int ->
  ?digest_fp_rate:float ->
  dir:string ->
  unit ->
  t
(** Open (creating if needed) the log directory and recover its
    state: sweep orphan tmp files and unlisted segments, scan every
    segment's frames to rebuild the index, flows and digests, and
    truncate the torn tail.  [segment_bytes] bounds a segment (default 4 MiB, min 1
    KiB); after more than [compact_threshold] sealed segments pile up
    they are merged (default 4).  [epoch_seconds] buckets Bloom
    digests (default 60; an existing log's manifest value wins).
    @raise Invalid_argument on nonsense parameters. *)

val append : t -> record -> unit
(** Append a retirement ('R') or live checkpoint ('L') record and
    index it; rolls and compacts segments as needed. *)

val append_flow : t -> src:string -> dst:string -> time:float -> ident:string -> unit
(** Append a sampled flow edge ('F' frame). *)

val record_digest : t -> node:string -> time:float -> string -> unit
(** Add a key to [node]'s Bloom digest for the epoch containing
    [time]; persisted as a 'B' frame on the next {!flush}. *)

val flush : t -> unit
(** Persist dirty Bloom digests and flush buffered frames to disk. *)

val compact : ?crash_after:[ `Tmp_written | `Manifest_swapped ] -> t -> int
(** Merge all sealed segments into one, dropping superseded live
    checkpoints and stale digest frames; returns the number of
    segments merged away (0 when fewer than two are sealed).
    [crash_after] is a test hook that aborts mid-compaction (raising
    {!Crash_injected}) to exercise recovery. *)

val close : t -> unit
(** Flush and release all file handles; idempotent. *)

(** {1 Queries} *)

val lookup : t -> ident:string -> record list
(** All records for a tuple identity (any node), oldest first. *)

val idents_of_relation : t -> string -> string list
(** Sorted tuple identities recorded for a relation (secondary index). *)

val idents_of_domain : t -> string -> string list
(** Sorted tuple identities recorded under an AS-domain base key. *)

val relations : t -> string list
(** Sorted relation names with at least one record. *)

val flows : t -> flow list
(** All sampled flows, oldest first. *)

val digest_mem : t -> node:string -> time:float -> string -> bool
(** Did [node]'s digest for the epoch containing [time] record the
    key?  Bloom semantics: possibly-false positives, no false
    negatives; [false] when the epoch has no digest. *)

val digest_nodes : t -> time:float -> string -> string list
(** Sorted nodes whose digest for the epoch containing [time]
    contains the key — the membership pre-filter for sampled
    traceback. *)

val epoch_of : t -> float -> int
val digest_count : t -> int
val record_count : t -> int
val segment_count : t -> int
val flow_count : t -> int
val directory : t -> string
val bytes_on_disk : t -> int

val sampled : k:int -> string -> bool
(** Deterministic 1/K sampling decision (paper §5.2): SHA-256 the
    flow key, keep 1-in-[k] ([k <= 1] keeps everything).  Stateless,
    so batched/sharded runtimes decide identically regardless of
    delivery interleaving. *)
