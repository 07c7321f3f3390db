(* Support graph for incremental deletion (DRed).

   Every derivation the fixpoint finds is recorded here as a support
   record: (rule, head, destination, body tuples with asserters).  The
   graph is maintained unconditionally — unlike [Core.Prov_store],
   whose recording is gated by the provenance configuration and
   sampling — because retraction correctness must not depend on
   whether the operator asked for provenance capture.  Records are
   cheap: hash-consed tuples are shared with the database, so an entry
   is a few words plus one flat int-array dedup key.

   The two indexes answer the two DRed questions:
   - [dependents_of]: which derivations consumed this tuple?
     (over-deletion walks head-ward through these)
   - [entries_of]: which derivations produce this tuple?
     (re-derivation checks these for a surviving alternative whose
     body is still live)

   Records are *not* removed when a body tuple is replaced by a keyed
   relation's policy: such stale records are harmless (their bodies
   fail the liveness check) and keeping them lets a previously
   rejected candidate be reinstated when the incumbent that beat it
   dies. *)

type entry = {
  sp_rule : string;
  sp_head : Tuple.t;
  sp_dest : string option; (* None = local head; Some d = emitted to d *)
  sp_body : (Tuple.t * Value.t option) list;
  sp_key : int array; (* dedup key; see [entry_key] *)
}

module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (k : int array) = Array.fold_left (fun acc i -> (acc * 31) + i) 7 k
end)

type t = {
  keys : entry Key_tbl.t; (* dedup: key -> the recorded entry *)
  by_head : (int, entry list ref) Hashtbl.t; (* Tuple.id of head *)
  by_body : (int, entry list ref) Hashtbl.t; (* Tuple.id of each body tuple *)
  by_rel : (string, (int, Tuple.t) Hashtbl.t) Hashtbl.t;
      (* head relation -> distinct head tuples; retraction scans only
         the relations a keyed group lost a tuple from, instead of
         every head in the graph *)
  rule_ids : (string, int) Hashtbl.t;
  dest_ids : (string, int) Hashtbl.t;
}

let create () : t =
  { keys = Key_tbl.create 256;
    by_head = Hashtbl.create 256;
    by_body = Hashtbl.create 256;
    by_rel = Hashtbl.create 16;
    rule_ids = Hashtbl.create 8;
    dest_ids = Hashtbl.create 8 }

let intern (tbl : (string, int) Hashtbl.t) (s : string) : int =
  match Hashtbl.find_opt tbl s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.add tbl s i;
    i

(* Identity of a support record: rule + head + destination + body
   tuples with asserters.  Matches the evaluator's per-round
   derivation-dedup identity, so one logical derivation is stored
   once across all rounds and runs. *)
let entry_key (t : t) ~rule ~(head : Tuple.t) ~(dest : string option) ~body :
    int array =
  let key = Array.make (3 + (2 * List.length body)) (-1) in
  key.(0) <- intern t.rule_ids rule;
  key.(1) <- Tuple.id head;
  key.(2) <- (match dest with Some d -> intern t.dest_ids d | None -> -1);
  List.iteri
    (fun i (b, asserter) ->
      key.(3 + (2 * i)) <- Tuple.id b;
      key.(4 + (2 * i)) <- (match asserter with Some p -> Value.id p | None -> -1))
    body;
  key

let bucket tbl id =
  match Hashtbl.find_opt tbl id with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add tbl id l;
    l

let record (t : t) ~(rule : string) ~(head : Tuple.t) ~(dest : string option)
    ~(body : (Tuple.t * Value.t option) list) : unit =
  let key = entry_key t ~rule ~head ~dest ~body in
  if not (Key_tbl.mem t.keys key) then begin
    let e = { sp_rule = rule; sp_head = head; sp_dest = dest; sp_body = body; sp_key = key } in
    Key_tbl.add t.keys key e;
    let hb = bucket t.by_head (Tuple.id head) in
    hb := e :: !hb;
    let rel_heads =
      match Hashtbl.find_opt t.by_rel head.Tuple.rel with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 32 in
        Hashtbl.add t.by_rel head.Tuple.rel tbl;
        tbl
    in
    Hashtbl.replace rel_heads (Tuple.id head) head;
    (* Index each distinct body tuple once. *)
    let seen = ref [] in
    List.iter
      (fun (b, _) ->
        let id = Tuple.id b in
        if not (List.mem id !seen) then begin
          seen := id :: !seen;
          let bb = bucket t.by_body id in
          bb := e :: !bb
        end)
      body
  end

let entries_of (t : t) (head : Tuple.t) : entry list =
  match Hashtbl.find_opt t.by_head (Tuple.id head) with
  | Some l -> !l
  | None -> []

let dependents_of (t : t) (tuple : Tuple.t) : entry list =
  match Hashtbl.find_opt t.by_body (Tuple.id tuple) with
  | Some l -> !l
  | None -> []

let mem_entry (t : t) (e : entry) : bool = Key_tbl.mem t.keys e.sp_key

let drop_from tbl id (e : entry) =
  match Hashtbl.find_opt tbl id with
  | None -> ()
  | Some l ->
    l := List.filter (fun e' -> e' != e) !l;
    if !l = [] then Hashtbl.remove tbl id

let remove_entry (t : t) (e : entry) : unit =
  if Key_tbl.mem t.keys e.sp_key then begin
    Key_tbl.remove t.keys e.sp_key;
    drop_from t.by_head (Tuple.id e.sp_head) e;
    if not (Hashtbl.mem t.by_head (Tuple.id e.sp_head)) then (
      match Hashtbl.find_opt t.by_rel e.sp_head.Tuple.rel with
      | Some tbl -> Hashtbl.remove tbl (Tuple.id e.sp_head)
      | None -> ());
    let seen = ref [] in
    List.iter
      (fun (b, _) ->
        let id = Tuple.id b in
        if not (List.mem id !seen) then begin
          seen := id :: !seen;
          drop_from t.by_body id e
        end)
      e.sp_body
  end

(* Iterate each distinct recorded head of one relation. *)
let iter_heads_of_rel (t : t) (rel : string) (f : Tuple.t -> unit) : unit =
  match Hashtbl.find_opt t.by_rel rel with
  | None -> ()
  | Some tbl -> Hashtbl.iter (fun _ h -> f h) tbl
