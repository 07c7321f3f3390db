(* Chord distributed hash table lookups over the runtime - the
   paper's future work ("we are in the process of evaluating a variety
   of secure networks specified and implemented by using SeNDlog
   (e.g. secure Chord routing)").

   The identifier ring (m-bit identifier space, successor lists,
   finger tables) is built here from the member set, then installed as
   base facts per node; the lookup protocol itself is the declarative
   program [Ndlog.Programs.chord], whose forwarded [lookup] tuples
   cross nodes and are therefore signed/verified and provenance-traced
   exactly like any other SeNDlog communication.  The provenance of a
   [lookupResult] names the principals along the lookup path - the
   "secure Chord" story. *)

open Engine

type ring = {
  m : int; (* identifier bits *)
  modulus : int;
  members : (string * int) list; (* (address, id), sorted by id *)
}

(* Node identifiers derived from addresses by hashing (as Chord
   does); collisions resolved by probing, so rings stay well defined
   for any member set. *)
let build_ring ?(m = 16) (addrs : string list) : ring =
  let modulus = 1 lsl m in
  let used = Hashtbl.create 64 in
  let id_of addr =
    let d = Crypto.Sha256.digest addr in
    let raw =
      (Char.code d.[0] lsl 24) lor (Char.code d.[1] lsl 16) lor (Char.code d.[2] lsl 8)
      lor Char.code d.[3]
    in
    let rec probe i =
      let candidate = (raw + i) land (modulus - 1) in
      if Hashtbl.mem used candidate then probe (i + 1)
      else begin
        Hashtbl.add used candidate ();
        candidate
      end
    in
    probe 0
  in
  let members =
    List.map (fun a -> (a, id_of a)) addrs
    |> List.sort (fun (_, i) (_, j) -> Stdlib.compare i j)
  in
  { m; modulus; members }

(* First member clockwise from [k] (the owner of key [k]). *)
let successor_of (ring : ring) (k : int) : string * int =
  match List.find_opt (fun (_, id) -> id >= k) ring.members with
  | Some member -> member
  | None -> List.hd ring.members (* wrap around *)

let id_of (ring : ring) (addr : string) : int =
  match List.assoc_opt addr ring.members with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Chord.id_of: %s not in ring" addr)

(* Successor (next member clockwise) of a member. *)
let member_successor (ring : ring) (addr : string) : string * int =
  let id = id_of ring addr in
  successor_of ring ((id + 1) mod ring.modulus)

(* The finger table: finger i points at successor(id + 2^i). *)
let fingers (ring : ring) (addr : string) : (int * string) list =
  let id = id_of ring addr in
  List.init ring.m (fun i ->
      let target = (id + (1 lsl i)) mod ring.modulus in
      let faddr, fid = successor_of ring target in
      (fid, faddr))
  |> List.sort_uniq compare
  |> List.filter (fun (_, faddr) -> faddr <> addr)

(* Every (node, fact) pair that materializes a ring: [self] / [succ] /
   [finger] facts for each member.  Exposed so member churn can diff
   two rings fact-by-fact. *)
let ring_facts (ring : ring) : (string * Tuple.t) list =
  List.concat_map
    (fun (addr, id) ->
      let saddr, sid = member_successor ring addr in
      (addr, Tuple.make "self" [ Value.V_str addr; Value.V_int id; Value.V_int ring.modulus ])
      :: ( addr,
           Tuple.make "succ" [ Value.V_str addr; Value.V_int sid; Value.V_str saddr ] )
      :: List.map
           (fun (fid, faddr) ->
             ( addr,
               Tuple.make "finger" [ Value.V_str addr; Value.V_int fid; Value.V_str faddr ] ))
           (fingers ring addr))
    ring.members

(* Install [self] / [succ] / [finger] facts for every ring member. *)
let install_ring (t : Runtime.t) (ring : ring) : unit =
  List.iter (fun (addr, tuple) -> Runtime.install_fact t ~at:addr tuple) (ring_facts ring)

(* Member churn (node join/leave): retract exactly the facts the old
   ring had and the new one lacks, install the reverse.  The runtime's
   incremental deletion then retracts every routing tuple derived from
   stale ring state (lookup results through a departed member, fingers
   at a reassigned identifier) and re-derives what the new ring
   supports. *)
let apply_ring_change (t : Runtime.t) ~(before : ring) ~(after : ring) : unit =
  let index facts =
    let h = Tuple.Addr_table.create 256 in
    List.iter (fun f -> Tuple.Addr_table.replace h f ()) facts;
    h
  in
  let old_facts = ring_facts before in
  let new_facts = ring_facts after in
  let old_idx = index old_facts in
  let new_idx = index new_facts in
  List.iter
    (fun ((addr, tuple) as f) ->
      if not (Tuple.Addr_table.mem new_idx f) then Runtime.retract_fact t ~at:addr tuple)
    old_facts;
  List.iter
    (fun ((addr, tuple) as f) ->
      if not (Tuple.Addr_table.mem old_idx f) then Runtime.install_fact t ~at:addr tuple)
    new_facts

(* Issue a lookup for key [key] starting at [from]; the initial path
   contains only the requester. *)
let issue_lookup (t : Runtime.t) ~(from : string) ~(key : int) : unit =
  Runtime.install_fact t ~at:from
    (Tuple.make "lookup"
       [ Value.V_str from; Value.V_int key; Value.V_str from;
         Value.V_list [ Value.V_str from ] ])

type lookup_result = {
  lr_key : int;
  lr_owner : string;
  lr_path : string list; (* nodes traversed, including the requester *)
  lr_hops : int;
}

(* Collect the results delivered back at [requester]. *)
let results (t : Runtime.t) ~(requester : string) : lookup_result list =
  List.filter_map
    (fun tuple ->
      match tuple.Tuple.args with
      | [| Value.V_str _r; Value.V_int key; Value.V_str owner; Value.V_list path |] ->
        let path =
          List.filter_map (function Value.V_str s -> Some s | _ -> None) path
        in
        Some { lr_key = key; lr_owner = owner; lr_path = path; lr_hops = List.length path - 1 }
      | _ -> None)
    (Runtime.query t ~at:requester "lookupResult")

(* Ground truth for verification. *)
let true_owner (ring : ring) (key : int) : string = fst (successor_of ring key)
