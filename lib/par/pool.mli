(** Fixed pool of worker domains for deterministic fan-out/fan-in.

    The pool holds [jobs - 1] worker domains; the caller of
    {!parallel_map} acts as the remaining worker, so a pool sized
    [jobs = 1] spawns no domains at all and every map runs inline on
    the caller — the sequential path stays exactly the sequential
    path.

    Determinism contract: [parallel_map pool f xs] partitions [xs]
    into at most [jobs] contiguous chunks, evaluates [f] on every
    element, and writes each result into the slot of its input index.
    The *schedule* of chunk execution is nondeterministic but the
    returned array is always [[| f xs.(0); f xs.(1); ... |]] — callers
    that need a canonical merge order iterate the result in index
    order.  [f] must therefore not rely on cross-element evaluation
    order, and must synchronize any access to shared mutable state.

    [parallel_map] is not reentrant: calling it from inside [f]
    deadlocks the pool.  The runtime's orchestrator is the only
    caller. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.
    Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Deterministic chunked map (see the module contract above).  An
    exception raised by [f] is re-raised in the caller after all
    chunks have settled. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool must not be used
    afterwards. *)
