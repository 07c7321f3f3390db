(* Discrete-event simulator.

   Replaces the real sockets between the paper's 100 P2 processes.
   Events (message deliveries, timers) execute in timestamp order;
   ties break by scheduling sequence, so runs are fully deterministic.
   The clock is *virtual*: simulated network latency is decoupled from
   the real CPU time spent in evaluation and crypto (which the
   benchmark harness measures with a wall clock, as the paper does). *)

type event = {
  ev_time : float;
  ev_seq : int;
  ev_action : unit -> unit;
}

module Pq = struct
  (* Binary min-heap ordered by (time, seq). *)
  type t = {
    mutable heap : event array;
    mutable size : int;
  }

  let dummy = { ev_time = 0.0; ev_seq = 0; ev_action = (fun () -> ()) }

  let min_capacity = 64

  let create () = { heap = Array.make min_capacity dummy; size = 0 }

  let lt a b = a.ev_time < b.ev_time || (a.ev_time = b.ev_time && a.ev_seq < b.ev_seq)

  let push (q : t) (e : event) : unit =
    if q.size = Array.length q.heap then begin
      let bigger = Array.make (2 * q.size) dummy in
      Array.blit q.heap 0 bigger 0 q.size;
      q.heap <- bigger
    end;
    q.heap.(q.size) <- e;
    q.size <- q.size + 1;
    (* Sift up. *)
    let i = ref (q.size - 1) in
    while !i > 0 && lt q.heap.(!i) q.heap.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      let tmp = q.heap.(parent) in
      q.heap.(parent) <- q.heap.(!i);
      q.heap.(!i) <- tmp;
      i := parent
    done

  (* Release heap memory once occupancy falls below a quarter of
     capacity, so a burst early in a long-lived simulation doesn't pin
     its peak array for the rest of the run.  Halving (not shrinking to
     fit) keeps push/pop cost amortized O(1) under oscillation. *)
  let maybe_shrink (q : t) : unit =
    let cap = Array.length q.heap in
    if cap > min_capacity && q.size * 4 < cap then begin
      let smaller = Array.make (max min_capacity (cap / 2)) dummy in
      Array.blit q.heap 0 smaller 0 q.size;
      q.heap <- smaller
    end

  let pop (q : t) : event option =
    if q.size = 0 then None
    else begin
      let top = q.heap.(0) in
      q.size <- q.size - 1;
      q.heap.(0) <- q.heap.(q.size);
      q.heap.(q.size) <- dummy;
      maybe_shrink q;
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.size && lt q.heap.(l) q.heap.(!smallest) then smallest := l;
        if r < q.size && lt q.heap.(r) q.heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = q.heap.(!smallest) in
          q.heap.(!smallest) <- q.heap.(!i);
          q.heap.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end

  let length q = q.size
  let capacity q = Array.length q.heap
end

type t = {
  mutable now : float;
  mutable seq : int;
  queue : Pq.t;
  g_depth_max : Obs.Metrics.gauge; (* queue depth high-water mark *)
  g_capacity : Obs.Metrics.gauge; (* current heap array capacity *)
  c_scheduled : Obs.Metrics.counter;
  c_processed : Obs.Metrics.counter;
}

let create () =
  let reg = Obs.Metrics.default in
  let t =
    { now = 0.0;
      seq = 0;
      queue = Pq.create ();
      g_depth_max = Obs.Metrics.gauge reg "sim.queue_depth_max";
      g_capacity = Obs.Metrics.gauge reg "sim.queue_capacity";
      c_scheduled = Obs.Metrics.counter reg "sim.events_scheduled";
      c_processed = Obs.Metrics.counter reg "sim.events_processed" }
  in
  Obs.Metrics.set t.g_capacity (float_of_int (Pq.capacity t.queue));
  t

let note_scheduled (t : t) : unit =
  Obs.Metrics.inc t.c_scheduled;
  Obs.Metrics.set_max t.g_depth_max (float_of_int (Pq.length t.queue));
  Obs.Metrics.set t.g_capacity (float_of_int (Pq.capacity t.queue))

let now (t : t) : float = t.now

let schedule (t : t) ~(delay : float) (action : unit -> unit) : unit =
  if delay < 0.0 then invalid_arg "Event_sim.schedule: negative delay";
  let e = { ev_time = t.now +. delay; ev_seq = t.seq; ev_action = action } in
  t.seq <- t.seq + 1;
  Pq.push t.queue e;
  note_scheduled t

let schedule_at (t : t) ~(time : float) (action : unit -> unit) : unit =
  if time < t.now then invalid_arg "Event_sim.schedule_at: time in the past";
  let e = { ev_time = time; ev_seq = t.seq; ev_action = action } in
  t.seq <- t.seq + 1;
  Pq.push t.queue e;
  note_scheduled t

let pending (t : t) : int = Pq.length t.queue

(* Timestamp of the earliest queued event, without executing it.  The
   runtime peeks every shard to open its next window. *)
let peek_time (t : t) : float option =
  if Pq.length t.queue = 0 then None else Some t.queue.Pq.heap.(0).ev_time

let queue_capacity (t : t) : int = Pq.capacity t.queue

(* Run until the queue drains (distributed fixpoint / quiescence) or
   the clock would pass [until].  Returns the number of events
   processed. *)
let run ?(until = Float.infinity) (t : t) : int =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Pq.pop t.queue with
    | None -> continue := false
    | Some e ->
      if e.ev_time > until then begin
        (* Leave future events beyond the horizon unexecuted. *)
        Pq.push t.queue e;
        continue := false
      end
      else begin
        t.now <- max t.now e.ev_time;
        e.ev_action ();
        incr count
      end
  done;
  Obs.Metrics.inc ~by:!count t.c_processed;
  (* Pops may have shrunk the heap; record the settled capacity. *)
  Obs.Metrics.set t.g_capacity (float_of_int (Pq.capacity t.queue));
  !count
