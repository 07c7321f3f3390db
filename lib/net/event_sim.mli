(** Discrete-event simulator.

    Replaces the real sockets between the paper's 100 P2 processes.
    Events (message deliveries, retransmission timers, node wake-ups)
    execute in timestamp order; ties break by scheduling
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

val queue_capacity : t -> int
(** Current heap array capacity (the queue shrinks after bursts; the
    memory tests observe this). *)

val run : ?until:float -> t -> int
(** Execute events until the queue drains (distributed quiescence) or
    the virtual clock would pass [until]; events beyond the horizon
    stay queued, so [~until:(Float.pred limit)] drains a window that
    excludes [limit].  Returns the number of events processed by this
    call, which the [sim.events_processed] counter also adds up. *)
