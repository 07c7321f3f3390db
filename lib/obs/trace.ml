(* Trace spans: nested timed regions emitted as a span tree.

   A tracer owns a *primary* clock — the simulator's virtual clock
   when tracing a run (so span durations line up with the paper's
   query-completion time), or the wall clock for host-side profiling —
   and always records the real wall-clock duration alongside, so a
   single trace shows both where the *modeled* time goes and where the
   *host CPU* time goes.

   Spans nest by call structure: [with_span] pushes onto a stack, so
   spans opened inside a span's body become its children.  Stacks are
   kept *per domain* and every mutation runs under the tracer's mutex,
   so the sharded engine's worker domains can open spans on a
   shared tracer without corrupting it; a span opened on one domain
   never becomes the implicit parent of a span recorded on another.
   [record] additionally accepts an explicit parent id, which is how
   the runtime stitches the causal chain across nodes: a receive
   handler's span names the *sending* node's span (carried in the wire
   message's trace context) as its parent.

   Completed spans append to a bounded list, oldest first;
   [Export.chrome_trace] writes them as a Chrome trace. *)

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start : float; (* primary clock at entry *)
  sp_dur : float; (* primary-clock duration *)
  sp_wall_dur : float; (* wall-clock duration *)
}

type t = {
  clock : unit -> float;
  tr_id : int; (* trace identity, carried in wire trace contexts *)
  mutable next_id : int;
  stacks : (int, int list) Hashtbl.t;
      (* per-domain stacks of open span ids, innermost first *)
  mutable finished : span list; (* most recently completed first *)
  mutable finished_len : int;
  limit : int;
  mutable dropped : int;
  mu : Mutex.t;
}

(* Distinct trace ids across tracers in one process, so a stale trace
   context from a previous run's tracer is never mistaken for one of
   ours. *)
let next_trace_id = Atomic.make 1

let create ?(limit = 200_000) ?(clock = Unix.gettimeofday) () : t =
  { clock;
    tr_id = Atomic.fetch_and_add next_trace_id 1;
    next_id = 0;
    stacks = Hashtbl.create 8;
    finished = [];
    finished_len = 0;
    limit;
    dropped = 0;
    mu = Mutex.create () }

let id (t : t) : int = t.tr_id

let locked (t : t) (f : unit -> 'a) : 'a =
  Mutex.lock t.mu;
  match f () with
  | r ->
    Mutex.unlock t.mu;
    r
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let domain_key () : int = (Domain.self () :> int)

(* Innermost open span on the calling domain, if any.  Call with the
   mutex held. *)
let current_parent (t : t) : int option =
  match Hashtbl.find_opt t.stacks (domain_key ()) with
  | Some (p :: _) -> Some p
  | Some [] | None -> None

let push_finished (t : t) (s : span) : unit =
  if t.finished_len >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.finished <- s :: t.finished;
    t.finished_len <- t.finished_len + 1
  end

let with_span (t : t) ?(attrs = []) (name : string) (f : unit -> 'a) : 'a =
  let dom = domain_key () in
  let id, parent =
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let parent = current_parent t in
        let stack = Option.value (Hashtbl.find_opt t.stacks dom) ~default:[] in
        Hashtbl.replace t.stacks dom (id :: stack);
        (id, parent))
  in
  let start = t.clock () in
  let wall0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dur = t.clock () -. start in
      let wall_dur = Unix.gettimeofday () -. wall0 in
      locked t (fun () ->
          (match Hashtbl.find_opt t.stacks dom with
          | Some (top :: rest) when top = id -> Hashtbl.replace t.stacks dom rest
          | _ -> () (* unbalanced exit via exception through a sibling *));
          push_finished t
            { sp_id = id;
              sp_parent = parent;
              sp_name = name;
              sp_attrs = attrs;
              sp_start = start;
              sp_dur = dur;
              sp_wall_dur = wall_dur }))
    f

(* Record an already-measured span (e.g. a handler whose *modeled*
   duration is only known after the cost model has been applied) and
   return its id, so the caller can propagate it as the parent of
   downstream spans (the wire trace context).  Without an explicit
   [parent] it parents under the calling domain's innermost open
   [with_span], if any. *)
let record (t : t) ?(attrs = []) ?parent (name : string) ~(start : float)
    ~(dur : float) ~(wall_dur : float) : int =
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match parent with Some _ -> parent | None -> current_parent t in
      push_finished t
        { sp_id = id;
          sp_parent = parent;
          sp_name = name;
          sp_attrs = attrs;
          sp_start = start;
          sp_dur = dur;
          sp_wall_dur = wall_dur };
      id)

(* Completed spans in completion order (children before parents). *)
let finished_spans (t : t) : span list = locked t (fun () -> List.rev t.finished)

let dropped (t : t) : int = t.dropped

let reset (t : t) : unit =
  locked t (fun () ->
      Hashtbl.reset t.stacks;
      t.finished <- [];
      t.finished_len <- 0;
      t.dropped <- 0)

(* Total primary-clock time spent in spans named [name]. *)
let total_duration (t : t) (name : string) : float =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. s.sp_dur else acc)
    0.0
    (locked t (fun () -> t.finished))
