(* Structured event log: a bounded ring buffer of typed runtime
   events, serialized as JSON lines.  It holds what counters cannot
   say: which node dropped a forged message from which sender, and the
   [E_custom] kinds the runtime emits ([retracted], [retry_exhausted],
   [link_down], [link_up]).  Routine traffic is counted in
   [Obs.Metrics] instead, so it cannot evict these entries.

   The buffer is fixed-capacity; once full the oldest entries are
   overwritten and counted in [dropped_count], so instrumentation can
   stay always-on without unbounded memory growth.  Events carry the
   virtual-clock timestamp at which they occurred plus a global
   sequence number (monotone even across overwrites). *)

type event =
  | E_forged_dropped of { node : string; src : string }
  | E_custom of { kind : string; attrs : (string * string) list }

type entry = {
  en_at : float;
  en_seq : int;
  en_event : event;
}

type log = {
  buf : entry option array;
  capacity : int;
  mutable next : int; (* slot the next entry lands in *)
  mutable seq : int;
  mutable dropped : int;
  mu : Mutex.t;
      (* emits can race between the sharded engine's worker
         domains; reads happen only from the orchestrator between
         batches, so guarding [emit] alone keeps the ring coherent *)
}

let create ?(capacity = 4096) () : log =
  if capacity <= 0 then invalid_arg "Events.create: capacity must be positive";
  { buf = Array.make capacity None;
    capacity;
    next = 0;
    seq = 0;
    dropped = 0;
    mu = Mutex.create () }

let emit (log : log) ~(at : float) (event : event) : unit =
  Mutex.lock log.mu;
  let slot = log.next mod log.capacity in
  if log.buf.(slot) <> None then log.dropped <- log.dropped + 1;
  log.buf.(slot) <- Some { en_at = at; en_seq = log.seq; en_event = event };
  log.seq <- log.seq + 1;
  log.next <- log.next + 1;
  Mutex.unlock log.mu

let length (log : log) : int = min log.next log.capacity

let dropped_count (log : log) : int = log.dropped

let total_emitted (log : log) : int = log.seq

let reset (log : log) : unit =
  Array.fill log.buf 0 log.capacity None;
  log.next <- 0;
  log.seq <- 0;
  log.dropped <- 0

(* Entries oldest-first (only the retained window). *)
let to_list (log : log) : entry list =
  let n = length log in
  let first = log.next - n in
  List.init n (fun i ->
      match log.buf.((first + i) mod log.capacity) with
      | Some e -> e
      | None -> assert false)

let kind_of (e : event) : string =
  match e with
  | E_forged_dropped _ -> "forged_dropped"
  | E_custom { kind; _ } -> kind

let event_fields (e : event) : (string * Json.t) list =
  match e with
  | E_forged_dropped { node; src } ->
    [ ("node", Json.Str node); ("src", Json.Str src) ]
  | E_custom { attrs; _ } -> List.map (fun (k, v) -> (k, Json.Str v)) attrs

let entry_to_json (e : entry) : Json.t =
  Json.Obj
    (( ("at", Json.Float e.en_at)
     :: ("seq", Json.Int e.en_seq)
     :: ("kind", Json.Str (kind_of e.en_event))
     :: event_fields e.en_event ))

(* One JSON object per line, oldest retained entry first. *)
let to_json_lines (log : log) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (entry_to_json e));
      Buffer.add_char buf '\n')
    (to_list log);
  Buffer.contents buf
