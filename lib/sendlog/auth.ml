(* Implementations of the [says] abstraction (Section 2.2).

   "In a hostile world, says may require digital signatures.  In a
   more benign world, says may simply append a cleartext principal
   header to a message - and this will of course be cheaper."

   Three modes:
   - [Auth_none]      plain NDlog, no says (the NDLog baseline);
   - [Auth_cleartext] principal name in the clear, no crypto (the
                      benign world);
   - [Auth_rsa]       per-tuple RSA signature (the hostile world: the
                      paper's SeNDlog configuration). *)

type mode =
  | Auth_none
  | Auth_cleartext
  | Auth_rsa

let mode_to_string = function
  | Auth_none -> "none"
  | Auth_cleartext -> "cleartext"
  | Auth_rsa -> "rsa"

(* Sender-side signature cache counters.  [Net.Wire.signed_bytes]
   deliberately excludes the sequence number and the provenance block,
   so identical payloads can share signature work.  The runtime signs
   only what it sends: its per-node sent cache keys on (dest, tuple,
   provenance block), a deduplicated re-emission is dropped before
   signing, and retransmissions reuse the already-signed message — so
   every lookup here is a message that goes out, and on workloads
   where no tuple is re-shipped toward the same destination hits read
   0.  The cache earns hits when the same tuple is re-shipped to the
   same destination under a *different* provenance block: the sent
   cache misses but the signed bytes recur (covered by the live-path
   fixture in test_sendlog.ml). *)
let c_cache_hits = Obs.Metrics.counter Obs.Metrics.default "crypto.sign_cache_hits"

let c_cache_misses = Obs.Metrics.counter Obs.Metrics.default "crypto.sign_cache_misses"

let sign_cache_max = 8192 (* per-principal bound; reset on overflow *)

(* One lock for every principal's sig_cache: nodes sign concurrently
   on the sharded engine's worker domains, and distinct
   principals never contend for long (the critical sections exclude
   the RSA exponentiation itself). *)
let sign_cache_mu = Mutex.create ()

(* RSA-sign the slice as [sender], consulting the principal's
   signature cache.  The slice is digested in place, and the digest is
   both the cache key and what [Rsa.sign_digest] pads — nothing is
   hashed twice and the signed bytes are never materialized as a
   string.  Signatures are deterministic, so a hit is byte-identical
   to a cold signing. *)
let rsa_sign_cached_slice (sender : Principal.t) (bytes : Net.Arena.slice) : string =
  let digest = Net.Arena.with_bytes bytes Crypto.Sha256.digest_bytes in
  Mutex.lock sign_cache_mu;
  let cached = Hashtbl.find_opt sender.sig_cache digest in
  Mutex.unlock sign_cache_mu;
  match cached with
  | Some s ->
    Obs.Metrics.inc c_cache_hits;
    s
  | None ->
    Obs.Metrics.inc c_cache_misses;
    let s = Crypto.Rsa.sign_digest sender.keypair.private_ digest in
    Mutex.lock sign_cache_mu;
    if Hashtbl.length sender.sig_cache >= sign_cache_max then
      Hashtbl.reset sender.sig_cache;
    Hashtbl.replace sender.sig_cache digest s;
    Mutex.unlock sign_cache_mu;
    s

(* Sign (or just attribute) the slice on behalf of [principal].  The
   slice is only read during the call (digested), never retained, so
   callers may pass views into a scratch arena. *)
let make_auth_slice (mode : mode) (sender : Principal.t) (bytes : Net.Arena.slice) :
    Net.Wire.auth =
  match mode with
  | Auth_none -> Net.Wire.A_none
  | Auth_cleartext -> Net.Wire.A_principal sender.name
  | Auth_rsa ->
    Net.Wire.A_signature
      { principal = sender.name;
        signature = rsa_sign_cached_slice sender bytes }

let make_auth (mode : mode) (sender : Principal.t) (bytes : string) : Net.Wire.auth =
  make_auth_slice mode sender (Net.Arena.of_string bytes)

type verdict =
  | Verified of string (* principal whose assertion checked out *)
  | Unsigned (* no authentication present (Auth_none mode) *)
  | Forged of string (* authentication present but invalid *)

(* Verify an incoming message's authentication against the directory.
   Cleartext headers are accepted at face value (that is the point of
   the benign mode); RSA signatures are checked straight out of the
   slice (the receive buffer) with no intermediate string. *)
let verify_slice (mode : mode) (directory : Principal.directory) (auth : Net.Wire.auth)
    (bytes : Net.Arena.slice) : verdict =
  match (mode, auth) with
  | Auth_none, _ -> Unsigned
  | Auth_cleartext, Net.Wire.A_principal p -> Verified p
  | Auth_cleartext, _ -> Forged "missing principal header"
  | Auth_rsa, Net.Wire.A_signature { principal; signature } -> (
    match Principal.find directory principal with
    | None -> Forged (Printf.sprintf "unknown principal %s" principal)
    | Some sender ->
      let digest = Net.Arena.with_bytes bytes Crypto.Sha256.digest_bytes in
      if Crypto.Rsa.verify_digest (Principal.public_key sender) ~signature digest
      then Verified principal
      else Forged (Printf.sprintf "bad signature from %s" principal))
  | Auth_rsa, _ -> Forged "missing signature"

let verify (mode : mode) (directory : Principal.directory) (auth : Net.Wire.auth)
    (bytes : string) : verdict =
  verify_slice mode directory auth (Net.Arena.of_string bytes)

(* --- batched verification --------------------------------------------- *)

let c_verify_batches = Obs.Metrics.counter Obs.Metrics.default "crypto.verify_batches"

let c_verify_batch_size = Obs.Metrics.counter Obs.Metrics.default "crypto.verify_batch_size"

(* Verify (auth, signed-bytes slice) pairs in order, one verdict per
   slot, counting the batch and its items.  The runtime does not call
   it: each received message is verified by [verify_slice] in the
   handler that accepts it. *)
let verify_batch (mode : mode) (directory : Principal.directory)
    (items : (Net.Wire.auth * Net.Arena.slice) array) : verdict array =
  if Array.length items > 0 then begin
    Obs.Metrics.inc c_verify_batches;
    Obs.Metrics.inc ~by:(Array.length items) c_verify_batch_size
  end;
  Array.map (fun (auth, bytes) -> verify_slice mode directory auth bytes) items

(* Sign an individual provenance node (authenticated provenance,
   Section 4.3: "individual nodes in the provenance tree need to have
   digital signatures to validate the authenticity of the computed
   provenance"). *)
let sign_provenance_node (mode : mode) (sender : Principal.t) ~(node_repr : string) :
    string option =
  match mode with
  | Auth_none | Auth_cleartext -> None
  | Auth_rsa -> Some (Crypto.Rsa.sign sender.keypair.private_ node_repr)

let verify_provenance_node (mode : mode) (directory : Principal.directory)
    ~(principal : string) ~(node_repr : string) ~(signature : string) : bool =
  match Principal.find directory principal with
  | None -> false
  | Some sender -> (
    match mode with
    | Auth_none | Auth_cleartext -> false
    | Auth_rsa -> Crypto.Rsa.verify (Principal.public_key sender) ~signature node_repr)
