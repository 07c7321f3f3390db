(** Discrete-event simulator.

    Replaces the real sockets between the paper's 100 P2 processes.
    Events (message deliveries, retransmission timers, crash/restart
    markers) execute in timestamp order; ties break by scheduling
    sequence, so a run is fully determined by the order of
    {!schedule}/{!schedule_at} calls.  The fault layer depends on this:
    reproducing a faulty run from a seed only works because the
    simulator itself introduces no nondeterminism.

    The clock is *virtual*: simulated network latency is decoupled from
    the real CPU time spent in evaluation and crypto (which the
    benchmark harness measures with a wall clock, as the paper does).

    The backing priority queue is hidden; all interaction goes through
    the scheduling functions below. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, in simulated seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedule an action [delay] simulated seconds from {!now}.
    Raises [Invalid_argument] on a negative delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Schedule at an absolute virtual time.  Raises [Invalid_argument]
    when [time] is already in the past. *)

val pending : t -> int
(** Number of events still queued. *)

val peek_time : t -> float option
(** Timestamp of the earliest queued event, or [None] when the queue
    is empty.  Does not execute anything. *)

val next_batch : t -> (unit -> unit) list
(** Pop {e all} events sharing the earliest timestamp, advance the
    clock to it, and return their actions {e unexecuted}, in
    scheduling-sequence order.  Same-timestamp events are causally
    independent (an event only schedules strictly later work once
    executed), so the runtime's drain may evaluate them
    concurrently, provided observable effects are committed in the
    returned order.  Counts the popped events as processed. *)

val queue_capacity : t -> int
(** Current heap array capacity (the queue shrinks after bursts; the
    memory tests observe this). *)

val events_processed : t -> int
(** Total events executed since {!create}. *)

val run : ?until:float -> ?max_events:int -> t -> int
(** Execute events until the queue drains (distributed quiescence) or
    the virtual clock would pass [until]; events beyond the horizon
    stay queued.  Returns the number of events processed by this
    call. *)
