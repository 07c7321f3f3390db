(* Run configuration: which point of the paper's taxonomy a run
   exercises.

   The three configurations of Section 6 are:
     NDLog        = { auth = Auth_none;  prov = Prov_off }
     SeNDLog      = { auth = Auth_rsa;   prov = Prov_off }
     SeNDLogProv  = { auth = Auth_rsa;   prov = Prov_local }
   Every run verifies each received assertion, joins through the
   per-store hash indexes, signs by CRT/Montgomery exponentiation and
   ships provenance BDD-condensed (Section 4.4).  The remaining knobs
   cover Sections 4 and 5 (distributed provenance, the offline log,
   sampling, AS granularity); [shards] is the only source of
   parallelism. *)

type prov_mode =
  | Prov_off
  | Prov_local (* evaluate each tuple's expression at its node, ship it (Section 4.1) *)
  | Prov_distributed (* store pointers; traceback computes expressions (Section 5) *)

type granularity =
  | Node_level (* provenance keyed by node/principal *)
  | As_level (* keyed by autonomous system (Section 5) *)

(* Cost model for the virtual clock (see DESIGN.md "Completion
   time"): each message charges the receiving node a fixed dataflow
   processing cost plus transmission time, on top of the *measured*
   CPU time of evaluation and cryptography.  The default per-message
   cost is calibrated so that the NDlog baseline sits in the regime
   where the paper's P2 deployment operated (single-digit ms per
   message through the dataflow and socket stack). *)
type cost_model = {
  per_message_seconds : float; (* fixed per-message dataflow cost *)
  throughput_bytes_per_sec : float; (* serialisation/transmission rate *)
  per_provenance_seconds : float;
      (* cost of the provenance-annotating relational operators P2's
         modification adds on each shipped tuple (Section 6) *)
}

let default_cost_model =
  { per_message_seconds = 0.005;
    throughput_bytes_per_sec = 12_500_000.0;
    per_provenance_seconds = 0.0015 }

type t = {
  auth : Sendlog.Auth.mode;
  prov : prov_mode;
  granularity : granularity;
  sign_provenance : bool; (* per-node signatures on provenance (Section 4.3) *)
  rsa_bits : int;
  cost_model : cost_model;
  fault : Net.Fault.model; (* how the simulated network misbehaves *)
  reliable : bool; (* per-channel seq/ACK/retransmit delivery layer *)
  retry_limit : int; (* retransmission attempts before giving up *)
  ack_timeout : float;
      (* base retransmission timeout in virtual seconds; doubles on
         each unacknowledged attempt (exponential backoff) *)
  max_backoff : float;
      (* cap on the backoff interval: without it a lossy channel's
         retransmission gaps grow past a minute and dominate simulated
         convergence time *)
  shards : int;
      (* event queues for the conservative parallel engine, the only
         source of parallelism: 1 = one queue drained as a single
         window on the calling domain, 0 = one shard per AS domain,
         K >= 2 = partition nodes across K shards by AS (domain i mod
         K) *)
  prov_log : string option;
      (* directory of the persisted offline provenance log (Section
         4.2); None = no on-disk write-through *)
  prov_sample_k : int;
      (* 1-in-K sampling (Section 5.2), decided by a hash so every
         node agrees: provenance is captured for 1 in K tuple
         identities, and the offline log records 1 in K shipments as
         flow records and Bloom digests; 1 = capture and record
         everything *)
}

let default =
  { auth = Sendlog.Auth.Auth_none;
    prov = Prov_off;
    granularity = Node_level;
    sign_provenance = false;
    rsa_bits = 384;
    cost_model = default_cost_model;
    fault = Net.Fault.ideal;
    reliable = false;
    retry_limit = 8;
    ack_timeout = 0.25;
    max_backoff = 2.0;
    shards = 1;
    prov_log = None;
    prov_sample_k = 1 }

(* The paper's three evaluation configurations. *)
let ndlog = default

let sendlog = { default with auth = Sendlog.Auth.Auth_rsa }

let sendlog_prov = { default with auth = Sendlog.Auth.Auth_rsa; prov = Prov_local }

let name (c : t) : string =
  match (c.auth, c.prov) with
  | Sendlog.Auth.Auth_none, Prov_off -> "NDLog"
  | Sendlog.Auth.Auth_rsa, Prov_off -> "SeNDLog"
  | Sendlog.Auth.Auth_rsa, Prov_local -> "SeNDLogProv"
  | _ ->
    Printf.sprintf "auth=%s/prov=%s"
      (Sendlog.Auth.mode_to_string c.auth)
      (match c.prov with
      | Prov_off -> "off"
      | Prov_local -> "local"
      | Prov_distributed -> "distributed")

(* --- builders ---------------------------------------------------------
   Validated setters; [bin/psn.ml] builds its configuration from its
   flags through these. *)

let with_rsa_bits (c : t) (rsa_bits : int) : t =
  if rsa_bits < 128 then invalid_arg "Config.with_rsa_bits: need >= 128 bits";
  { c with rsa_bits }

let with_fault_seed (c : t) (seed : int) : t =
  { c with fault = Net.Fault.with_seed c.fault seed }

(* Rebuild the default link spec through [Fault.uniform] so each
   setter re-validates the whole spec. *)
let update_spec (c : t) (f : Net.Fault.spec -> Net.Fault.spec) : t =
  let m = c.fault in
  let s = f m.Net.Fault.default_spec in
  let s =
    Net.Fault.uniform ~drop:s.Net.Fault.drop ~duplicate:s.Net.Fault.duplicate
      ~reorder:s.Net.Fault.reorder ~jitter:s.Net.Fault.jitter ()
  in
  { c with fault = { m with Net.Fault.default_spec = s } }

let with_loss (c : t) (p : float) : t =
  update_spec c (fun s -> { s with Net.Fault.drop = p })

let with_dup (c : t) (p : float) : t =
  update_spec c (fun s -> { s with Net.Fault.duplicate = p })

let with_reorder (c : t) (p : float) : t =
  update_spec c (fun s -> { s with Net.Fault.reorder = p })

let with_jitter (c : t) (j : float) : t =
  update_spec c (fun s -> { s with Net.Fault.jitter = j })

let with_crash (c : t) (crash : Net.Fault.crash) : t =
  let m = c.fault in
  let fault =
    Net.Fault.make ~seed:m.Net.Fault.seed ~default_spec:m.Net.Fault.default_spec
      ~crashes:(m.Net.Fault.crashes @ [ crash ])
      ()
  in
  { c with fault }

let with_reliable (c : t) (reliable : bool) : t = { c with reliable }

let with_retry (c : t) ?(limit = 8) ?(ack_timeout = 0.25) () : t =
  if limit < 0 then invalid_arg "Config.with_retry: negative retry limit";
  if ack_timeout <= 0.0 then
    invalid_arg "Config.with_retry: ack_timeout must be positive";
  { c with retry_limit = limit; ack_timeout }

let with_max_backoff (c : t) (max_backoff : float) : t =
  if max_backoff <= 0.0 then
    invalid_arg "Config.with_max_backoff: must be positive";
  { c with max_backoff }

let with_shards (c : t) (shards : int) : t =
  if shards < 0 then invalid_arg "Config.with_shards: need >= 0 (0 = per domain)";
  { c with shards }

let with_granularity (c : t) (granularity : granularity) : t = { c with granularity }

let with_prov_log (c : t) (dir : string option) : t =
  (match dir with
  | Some "" -> invalid_arg "Config.with_prov_log: empty directory"
  | _ -> ());
  { c with prov_log = dir }

let with_prov_sample (c : t) (k : int) : t =
  if k < 1 then invalid_arg "Config.with_prov_sample: need K >= 1";
  { c with prov_sample_k = k }

let granularity_of_string (s : string) : (granularity, string) result =
  match String.lowercase_ascii s with
  | "node" -> Ok Node_level
  | "domain" | "as" -> Ok As_level
  | _ -> Error (Printf.sprintf "unknown provenance granularity %S (node|domain)" s)
