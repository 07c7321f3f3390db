(* Per-node provenance storage, covering the taxonomy of Section 4.

   *Local/online*: each live tuple's provenance expression is
   available at the node, evaluated from its derivation records when
   asked.
   *Distributed/online*: each live tuple maps to derivation records -
   (rule, body tuples) - and to the senders that shipped it, i.e. only
   pointers to the previous hop, reconstructed on demand by
   [Traceback].
   *Offline*: when a tuple expires, is replaced or is retracted, its
   provenance leaves the live table for the append-only log (Section
   4.2), when the store was created with one.

   An entry has one life cycle.  It is created when its tuple goes
   live at the node or ships from it, and it leaves only through
   [retire], which writes it to the log.  Pruning an entry's last
   alternative retires it with that alternative still inside, so the
   log names the derivation or sender that last stood behind it.

   Derivations are stored as the log's own [Store.Prov_log.deriv]
   records, and retirements and checkpoints are built as the log's
   [Store.Prov_log.record], so a live entry and a log record describe
   a derivation with one type.

   Re-derivations of the same tuple combine with [Plus]; duplicate
   alternatives (the same rule over the same body tuples, which
   semi-naive evaluation can report more than once, or the same
   expression from the same sender) are recorded once.

   The records are the only stored form of provenance.  An
   alternative keeps only what they cannot rebuild: a base its key, a
   received copy the expression its sender shipped, a local
   derivation its record.  [expr_of] evaluates the Plus of a tuple's
   alternatives each time it is asked, so incremental deletion only
   removes the alternatives a retraction invalidated, and no copy of
   a body's expression can go stale in its dependents.

   The received alternatives are also the node's only record of who
   stands behind a received tuple: the runtime adds and removes them
   in every provenance mode (with a zero expression when provenance
   is off), and retraction reads them as external support. *)

open Engine

(* One Plus alternative of a tuple's provenance: what the records
   cannot rebuild. *)
type alt =
  | Alt_base of string (* locally asserted base fact, by its key *)
  | Alt_deriv of Store.Prov_log.deriv (* local rule firing *)
  | Alt_recv of string * Provenance.Prov_expr.t (* sender, expression it shipped *)

(* A local derivation's identity: rule plus body tuples with the
   asserting principal a [says] literal consumed, if any.  Origins and
   times are excluded, so a retraction (which only knows the body
   tuples) can name it. *)
let same_item (b : Tuple.t) (says : string option) (i : Store.Prov_log.body_item) : bool =
  Tuple.equal b i.b_tuple && Option.equal String.equal says i.b_says

let is_deriv ~(rule : string) (body : (Tuple.t * string option) list)
    (d : Store.Prov_log.deriv) : bool =
  String.equal d.d_rule rule
  && List.compare_lengths body d.d_body = 0
  && List.for_all2 (fun (b, says) i -> same_item b says i) body d.d_body

(* Whether two alternatives record the same thing (and one of them
   adds nothing). *)
let same_alt (a : alt) (b : alt) : bool =
  match (a, b) with
  | Alt_base k, Alt_base k' -> String.equal k k'
  | Alt_deriv d, Alt_deriv d' ->
    String.equal d.d_rule d'.d_rule
    && List.equal
         (fun (i : Store.Prov_log.body_item) i' -> same_item i.b_tuple i.b_says i')
         d.d_body d'.d_body
  | Alt_recv (f, e), Alt_recv (f', e') ->
    String.equal f f' && Provenance.Prov_expr.equal e e'
  | (Alt_base _ | Alt_deriv _ | Alt_recv _), _ -> false

type entry = { mutable e_alts : alt list (* newest first *) }

type t = {
  node : string; (* address of the node holding the store *)
  domain : string; (* its AS-domain base key, the log's secondary index *)
  prov : Config.prov_mode;
  log : Store.Prov_log.t option; (* write-through target of every retirement *)
  entries : entry Tuple.Table.t;
}

(* With provenance off the store holds senders only: they reach
   neither the log, its checkpoints, nor the storage accounting. *)
let create ~(node : string) ~(domain : string) ~(prov : Config.prov_mode)
    ~(log : Store.Prov_log.t option) : t =
  { node; domain; prov;
    log = (if prov = Config.Prov_off then None else log);
    entries = Tuple.Table.create 256 }

let find (t : t) (tuple : Tuple.t) : entry option = Tuple.Table.find_opt t.entries tuple

let mem (t : t) (tuple : Tuple.t) : bool = Tuple.Table.mem t.entries tuple

let entry (t : t) (tuple : Tuple.t) : entry =
  match Tuple.Table.find_opt t.entries tuple with
  | Some e -> e
  | None ->
    let e = { e_alts = [] } in
    Tuple.Table.replace t.entries tuple e;
    e

(* The Plus of the alternatives, oldest first: a base gives its key, a
   received copy the expression its sender shipped, and a local
   derivation the Times of its bodies' expressions at this node (zero
   under distributed provenance, which keeps pointers only).  [path]
   holds the entries being evaluated higher up in this call; a body
   among them closes a cycle in the records and contributes zero. *)
let rec eval_entry (t : t) (path : entry list) (e : entry) : Provenance.Prov_expr.t =
  let path = e :: path in
  List.fold_right
    (fun a acc ->
      let x =
        match a with
        | Alt_base key -> Provenance.Prov_expr.base key
        | Alt_recv (_, shipped) -> shipped
        | Alt_deriv d when t.prov = Config.Prov_local ->
          List.fold_left
            (fun acc (b : Store.Prov_log.body_item) ->
              Provenance.Prov_expr.times acc (eval_tuple t path b.b_tuple))
            Provenance.Prov_expr.one d.d_body
        | Alt_deriv _ -> Provenance.Prov_expr.zero
      in
      Provenance.Prov_expr.plus acc x)
    e.e_alts Provenance.Prov_expr.zero

and eval_tuple (t : t) (path : entry list) (tuple : Tuple.t) : Provenance.Prov_expr.t =
  match find t tuple with
  | Some e when not (List.memq e path) -> eval_entry t path e
  | Some _ | None -> Provenance.Prov_expr.zero

let expr_of (t : t) (tuple : Tuple.t) : Provenance.Prov_expr.t = eval_tuple t [] tuple

let alt_derivs (alts : alt list) : Store.Prov_log.deriv list =
  List.filter_map
    (fun a -> match a with Alt_deriv r -> Some r | Alt_base _ | Alt_recv _ -> None)
    alts

let derivs_of (t : t) (tuple : Tuple.t) : Store.Prov_log.deriv list =
  match find t tuple with Some e -> alt_derivs e.e_alts | None -> []

(* Senders of the [Alt_recv] alternatives, newest first by first
   arrival: a sender's oldest alternative places it. *)
let alt_senders (alts : alt list) : string list =
  List.fold_right
    (fun a acc ->
      match a with
      | Alt_recv (f, _) when not (List.exists (String.equal f) acc) -> f :: acc
      | Alt_recv _ | Alt_base _ | Alt_deriv _ -> acc)
    alts []

let received_from (t : t) (tuple : Tuple.t) : string list =
  match find t tuple with Some e -> alt_senders e.e_alts | None -> []

let add_alt (e : entry) (a : alt) : unit =
  if not (List.exists (same_alt a) e.e_alts) then e.e_alts <- a :: e.e_alts

(* Record a base tuple with its provenance key (principal, tuple id,
   or AS, depending on granularity). *)
let record_base (t : t) (tuple : Tuple.t) ~(key : string) : unit =
  add_alt (entry t tuple) (Alt_base key)

(* Record a local derivation (a duplicate of one already recorded adds
   nothing). *)
let record_derivation (t : t) (head : Tuple.t) ~(record : Store.Prov_log.deriv) : unit =
  add_alt (entry t head) (Alt_deriv record)

(* Record provenance shipped with a received tuple (local mode over
   the network): one more alternative of what we already believe. *)
let record_received (t : t) (tuple : Tuple.t) ~(from : string)
    ~(expr : Provenance.Prov_expr.t) : unit =
  add_alt (entry t tuple) (Alt_recv (from, expr))

let log_record (t : t) (tuple : Tuple.t) (e : entry) ~(live : bool) ~(now : float) :
    Store.Prov_log.record =
  { Store.Prov_log.r_node = t.node; r_domain = t.domain; r_live = live; r_at = now;
    r_tuple = tuple; r_received_from = alt_senders e.e_alts;
    r_derivs = alt_derivs e.e_alts }

(* Move a tuple's provenance to the offline log (Section 4.2): the
   only way an entry leaves the live table. *)
let retire (t : t) (tuple : Tuple.t) ~(now : float) : unit =
  match find t tuple with
  | None -> ()
  | Some e ->
    Tuple.Table.remove t.entries tuple;
    Option.iter
      (fun log -> Store.Prov_log.append log (log_record t tuple e ~live:false ~now))
      t.log

(* Drop the alternatives [keep] rejects; an entry that would be left
   with none is retired whole instead. *)
let prune (t : t) (tuple : Tuple.t) ~(now : float) ~(keep : alt -> bool) : unit =
  match find t tuple with
  | None -> ()
  | Some e ->
    let kept = List.filter keep e.e_alts in
    if kept = [] then retire t tuple ~now else e.e_alts <- kept

(* Trim one invalidated derivation alternative (incremental deletion:
   a body tuple died). *)
let remove_derivation (t : t) (head : Tuple.t) ~(now : float) ~(rule : string)
    ~(body : (Tuple.t * string option) list) : unit =
  prune t head ~now ~keep:(function
    | Alt_deriv d -> not (is_deriv ~rule body d)
    | Alt_base _ | Alt_recv _ -> true)

(* Forget everything a sender contributed to this tuple's provenance
   (the sender retracted it). *)
let remove_received (t : t) (tuple : Tuple.t) ~(now : float) ~(from : string) : unit =
  prune t tuple ~now ~keep:(function
    | Alt_recv (f, _) -> not (String.equal f from)
    | Alt_base _ | Alt_deriv _ -> true)

(* Snapshot the live entries as checkpoint records (checkpoint time as
   the timestamp); the runtime persists these as 'L' frames so offline
   traceback covers still-live tuples across a restart. *)
let live_records (t : t) ~(now : float) : Store.Prov_log.record list =
  if t.prov = Config.Prov_off then []
  else
    Tuple.Table.fold
      (fun tuple e acc -> log_record t tuple e ~live:true ~now :: acc)
      t.entries []

(* Storage accounting for the ablations: bytes of online expressions
   and derivation pointers. *)
type storage = {
  st_online_entries : int;
  st_online_expr_bytes : int;
  st_online_pointer_bytes : int;
}

let storage (t : t) : storage =
  let count tuple e (entries, eb, pb) =
    let eb = eb + Provenance.Prov_expr.wire_size (expr_of t tuple) in
    let pb =
      List.fold_left
        (fun acc (r : Store.Prov_log.deriv) ->
          List.fold_left
            (fun acc (b : Store.Prov_log.body_item) ->
              acc + Net.Wire.tuple_wire_size b.b_tuple)
            acc r.d_body)
        pb (alt_derivs e.e_alts)
    in
    (entries + 1, eb, pb)
  in
  let entries, expr_bytes, ptr_bytes =
    if t.prov = Config.Prov_off then (0, 0, 0)
    else Tuple.Table.fold count t.entries (0, 0, 0)
  in
  { st_online_entries = entries;
    st_online_expr_bytes = expr_bytes;
    st_online_pointer_bytes = ptr_bytes }
