(* Accountability (Section 3): PlanetFlow-style auditing.

   "PlanetFlow is a network auditing service ... to provide
   accountability for all traffic generated by PlanetLab services, to
   ensure that all users are in accordance with PlanetLab policies."

   We audit a simulated run: every wire message is attributable (in
   the authenticated configurations) to its sending principal, so we
   can produce per-principal usage reports, enforce quota policies,
   and - the call-detail analogy - keep a queryable historical record
   of who sent what to whom. *)

open Engine

type flow_record = {
  fr_principal : string;
  fr_src : string;
  fr_dst : string;
  fr_relation : string;
  fr_bytes : int;
  fr_time : float;
  fr_authenticated : bool;
}

type ledger = {
  mutable records : flow_record list;
  mutable unattributed_bytes : int; (* traffic with no principal (NDlog mode) *)
}

let create_ledger () = { records = []; unattributed_bytes = 0 }

(* Record one message in the ledger; called by the audit tap. *)
let record (l : ledger) ~(time : float) (msg : Net.Wire.message) : unit =
  let bytes = Net.Wire.size msg in
  match msg.msg_auth with
  | Net.Wire.A_none -> l.unattributed_bytes <- l.unattributed_bytes + bytes
  | Net.Wire.A_principal p ->
    l.records <-
      { fr_principal = p; fr_src = msg.msg_src; fr_dst = msg.msg_dst;
        fr_relation = msg.msg_tuple.Tuple.rel; fr_bytes = bytes; fr_time = time;
        fr_authenticated = false }
      :: l.records
  | Net.Wire.A_signature { principal; _ } ->
    l.records <-
      { fr_principal = principal; fr_src = msg.msg_src; fr_dst = msg.msg_dst;
        fr_relation = msg.msg_tuple.Tuple.rel; fr_bytes = bytes; fr_time = time;
        fr_authenticated = true }
      :: l.records

(* Per-principal usage summary, sorted by bytes descending. *)
let usage (l : ledger) : (string * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace tbl r.fr_principal
        (Option.value (Hashtbl.find_opt tbl r.fr_principal) ~default:0 + r.fr_bytes))
    l.records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)

(* Principals exceeding a byte quota - the policy-enforcement use. *)
let over_quota (l : ledger) ~(quota_bytes : int) : (string * int) list =
  List.filter (fun (_, b) -> b > quota_bytes) (usage l)

(* Call-detail-style query: records involving [principal] in a time
   window (the "historical examination of call detail records"). *)
let call_detail (l : ledger) ~(principal : string) ?(since = 0.0)
    ?(until = Float.infinity) () : flow_record list =
  List.filter
    (fun r ->
      String.equal r.fr_principal principal && r.fr_time >= since && r.fr_time <= until)
    l.records
  |> List.sort (fun a b -> Float.compare a.fr_time b.fr_time)

(* Simple diverse-billing model (the introduction's "imposing diverse
   billing over the Internet"): price per byte differs per relation
   (e.g. control plane vs data plane). *)
let bill (l : ledger) ~(rate : string -> float) : (string * float) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let cost = rate r.fr_relation *. float_of_int r.fr_bytes in
      Hashtbl.replace tbl r.fr_principal
        (Option.value (Hashtbl.find_opt tbl r.fr_principal) ~default:0.0 +. cost))
    l.records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let report (l : ledger) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "principal      bytes  msgs  authenticated\n";
  let msgs = Hashtbl.create 16 and auth = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace msgs r.fr_principal
        (Option.value (Hashtbl.find_opt msgs r.fr_principal) ~default:0 + 1);
      if r.fr_authenticated then
        Hashtbl.replace auth r.fr_principal
          (Option.value (Hashtbl.find_opt auth r.fr_principal) ~default:0 + 1))
    l.records;
  List.iter
    (fun (p, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %7d %5d  %d\n" p bytes
           (Option.value (Hashtbl.find_opt msgs p) ~default:0)
           (Option.value (Hashtbl.find_opt auth p) ~default:0)))
    (usage l);
  if l.unattributed_bytes > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(unattributed: %d bytes)\n" l.unattributed_bytes);
  Buffer.contents buf
