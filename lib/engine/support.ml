(* Support graph for incremental deletion (DRed).

   Every derivation the fixpoint finds is recorded here as a support
   record: (rule, head, destination, body tuples with asserters).  The
   graph is maintained unconditionally — unlike [Core.Prov_store],
   whose recording is gated by the provenance configuration and
   sampling — because retraction correctness must not depend on
   whether the operator asked for provenance capture.  Records are
   cheap: their tuples are shared with the database, so an entry is a
   few words plus its hash.

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
  sp_hash : int; (* combines the tuples' stored hashes; see [entry] *)
}

(* A derivation's identity: rule + head + destination + body tuples
   with asserters.  The evaluator's per-round dedup and the graph's
   record dedup both key on it, so one logical derivation is stored
   once across all rounds and runs. *)
let entry ~(rule : string) ~(head : Tuple.t) ~(dest : string option)
    ~(body : (Tuple.t * Value.t option) list) : entry =
  let h = (Hashtbl.hash rule * 31) + Tuple.hash head in
  let h = match dest with Some d -> (h * 31) + Hashtbl.hash d | None -> h in
  let sp_hash =
    List.fold_left
      (fun h (b, asserter) ->
        let h = (h * 31) + Tuple.hash b in
        match asserter with Some p -> (h * 31) + Value.hash p | None -> h)
      h body
  in
  { sp_rule = rule; sp_head = head; sp_dest = dest; sp_body = body; sp_hash }

module Entry_tbl = Hashtbl.Make (struct
  type t = entry

  let equal a b =
    a == b
    || a.sp_hash = b.sp_hash
       && String.equal a.sp_rule b.sp_rule
       && Tuple.equal a.sp_head b.sp_head
       && Option.equal String.equal a.sp_dest b.sp_dest
       && List.equal
            (fun (x, p) (y, q) -> Tuple.equal x y && Option.equal Value.equal p q)
            a.sp_body b.sp_body

  let hash e = e.sp_hash
end)

type t = {
  keys : entry Entry_tbl.t; (* dedup: the recorded entry per identity *)
  by_head : entry list ref Tuple.Table.t;
  by_body : entry list ref Tuple.Table.t; (* keyed on each body tuple *)
  by_rel : (string, Tuple.t Tuple.Table.t) Hashtbl.t;
      (* head relation -> distinct head tuples; retraction scans only
         the relations a keyed group lost a tuple from, instead of
         every head in the graph *)
}

let create () : t =
  { keys = Entry_tbl.create 256;
    by_head = Tuple.Table.create 256;
    by_body = Tuple.Table.create 256;
    by_rel = Hashtbl.create 16 }

let bucket tbl tuple =
  match Tuple.Table.find_opt tbl tuple with
  | Some l -> l
  | None ->
    let l = ref [] in
    Tuple.Table.add tbl tuple l;
    l

(* Each distinct body tuple of [e], once. *)
let distinct_bodies (e : entry) : Tuple.t list =
  List.fold_left
    (fun seen (b, _) -> if List.exists (Tuple.equal b) seen then seen else b :: seen)
    [] e.sp_body

let record (t : t) (e : entry) : unit =
  if not (Entry_tbl.mem t.keys e) then begin
    Entry_tbl.add t.keys e e;
    let hb = bucket t.by_head e.sp_head in
    hb := e :: !hb;
    let rel_heads =
      match Hashtbl.find_opt t.by_rel e.sp_head.Tuple.rel with
      | Some tbl -> tbl
      | None ->
        let tbl = Tuple.Table.create 32 in
        Hashtbl.add t.by_rel e.sp_head.Tuple.rel tbl;
        tbl
    in
    Tuple.Table.replace rel_heads e.sp_head e.sp_head;
    List.iter
      (fun b ->
        let bb = bucket t.by_body b in
        bb := e :: !bb)
      (distinct_bodies e)
  end

let entries_of (t : t) (head : Tuple.t) : entry list =
  match Tuple.Table.find_opt t.by_head head with
  | Some l -> !l
  | None -> []

let dependents_of (t : t) (tuple : Tuple.t) : entry list =
  match Tuple.Table.find_opt t.by_body tuple with
  | Some l -> !l
  | None -> []

let mem_entry (t : t) (e : entry) : bool = Entry_tbl.mem t.keys e

let drop_from tbl tuple (e : entry) =
  match Tuple.Table.find_opt tbl tuple with
  | None -> ()
  | Some l ->
    l := List.filter (fun e' -> e' != e) !l;
    if !l = [] then Tuple.Table.remove tbl tuple

let remove_entry (t : t) (e : entry) : unit =
  match Entry_tbl.find_opt t.keys e with
  | None -> ()
  | Some e ->
    Entry_tbl.remove t.keys e;
    drop_from t.by_head e.sp_head e;
    if not (Tuple.Table.mem t.by_head e.sp_head) then (
      match Hashtbl.find_opt t.by_rel e.sp_head.Tuple.rel with
      | Some tbl -> Tuple.Table.remove tbl e.sp_head
      | None -> ());
    List.iter (fun b -> drop_from t.by_body b e) (distinct_bodies e)

(* Iterate each distinct recorded head of one relation. *)
let iter_heads_of_rel (t : t) (rel : string) (f : Tuple.t -> unit) : unit =
  match Hashtbl.find_opt t.by_rel rel with
  | None -> ()
  | Some tbl -> Tuple.Table.iter (fun _ h -> f h) tbl
