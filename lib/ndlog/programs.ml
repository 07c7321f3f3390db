(* Library of canonical NDlog / SeNDlog programs.

   These are the programs the paper presents (Sections 2.1, 2.2) and
   the Best-Path query its evaluation runs (Section 6), plus the
   classic distance-vector formulation from Loo et al. as an extra
   workload.  Each is exposed both as source text (so examples and
   tests exercise the full parser pipeline) and pre-parsed. *)

(* Section 2.1: all-pairs reachability. *)
let reachable_src =
  {|
r1 reachable(@S, D) :- link(@S, D).
r2 reachable(@S, D) :- link(@S, Z), reachable(@Z, D).
|}

(* Section 2.2: the same query in SeNDlog, within the context of S. *)
let sendlog_reachable_src =
  {|
At S:
s1 reachable(S, D) :- link(S, D).
s2 linkD(D, S)@D :- link(S, D).
s3 reachable(Z, Y)@Z :- Z says linkD(S, Z), W says reachable(S, Y).
|}

(* Section 6: the Best-Path query.  "This query is obtained from the
   NDlog all-pairs reachability query presented in Section 2, with
   additional predicates to compute the actual path, cost of the path,
   and two extra rules for computing the best paths."

   - [path(@S,D,P,C)]: there is a path P from S to D with cost C;
   - [bestPathCost(@S,D,C)]: C is the minimum path cost from S to D;
   - [bestPath(@S,D,P,C)]: P realises the minimum cost.

   The recursion goes through [bestPath] (not raw [path]) so that only
   optimal prefixes are extended; this both matches the path-vector
   protocol the paper references and keeps the computation finite.

   [#key bestPath 0,1 min 3.] keeps, among equal-cost witnesses, the
   structurally least tuple instead of the last arrival, so the
   fixpoint is independent of message interleaving — sequential,
   batched and sharded runs agree byte for byte. *)
let best_path_src =
  {|
#key bestPathCost 0,1.
#key bestPath 0,1 min 3.
p1 path(@S, D, P, C) :- link(@S, D, C), P := f_init(S, D).
p2 path(@S, D, P, C) :- link(@S, Z, C1), bestPath(@Z, D, P2, C2),
   f_member(P2, S) == false, C := C1 + C2, P := f_concat(S, P2).
p3 bestPathCost(@S, D, a_MIN<C>) :- path(@S, D, P, C).
p4 bestPath(@S, D, P, C) :- bestPathCost(@S, D, C), path(@S, D, P, C).
|}

(* SeNDlog variant of Best-Path: same dataflow, but expressed within a
   security context so every shipped tuple crosses a `says` boundary.
   The [Z says bestPath] import is what triggers signature generation /
   verification in the authenticated configurations. *)
let sendlog_best_path_src =
  {|
#key bestPathCost 0,1.
#key bestPath 0,1 min 3.
At S:
sp1 path(S, D, P, C) :- link(S, D, C), P := f_init(S, D).
sp2 pathHint(S, C1, D)@D :- link(S, D, C1).
sp3 path(Z, D, P, C)@Z :- Z says pathHint(Z, C1, S), W says bestPath(S, D, P2, C2),
    f_member(P2, Z) == false, C := C1 + C2, P := f_concat(Z, P2).
sp4 bestPathCost(S, D, a_MIN<C>) :- path(S, D, P, C).
sp5 bestPath(S, D, P, C) :- bestPathCost(S, D, C), path(S, D, P, C).
|}

(* Distance-vector routing (costs only, no paths); converges with the
   same MIN-aggregate replace semantics. *)
let distance_vector_src =
  {|
#key shortestCost 0,1.
d1 cost(@S, D, C) :- link(@S, D, C).
d2 cost(@S, D, C) :- link(@S, Z, C1), shortestCost(@Z, D, C2), C := C1 + C2,
   C < 100000.
d3 shortestCost(@S, D, a_MIN<C>) :- cost(@S, D, C).
|}

(* Real-time diagnostics (Section 3): count route changes per entry
   over a sliding window of [window_seconds] (the soft-state lifetime
   of [routeEvent]) and raise an alarm at [threshold] changes.
   [Core.Diagnostics.monitor_program] runs it. *)
let diagnostics_src ~(window_seconds : int) ~(threshold : int) =
  Printf.sprintf
    {|
#ttl routeEvent %d.
m1 changeCount(@S, D, a_COUNT<T>) :- routeEvent(@S, D, T).
m2 alarm(@S, D, N) :- changeCount(@S, D, N), N >= %d.
|}
    window_seconds threshold

let parse src = Parser.parse_program_exn src

let reachable () = parse reachable_src
let sendlog_reachable () = parse sendlog_reachable_src
let best_path () = parse best_path_src
let sendlog_best_path () = parse sendlog_best_path_src


(* Chord lookup routing (the paper's future work: "secure Chord
   routing" specified in SeNDlog; P2 implemented Chord in 47 rules).
   The ring facts - [self(@N, Id, M)], [succ(@N, SId, SAddr)],
   [finger(@N, FId, FAddr)] - are installed by [Core.Chord] from a
   built identifier ring; these rules implement iterative lookup
   forwarding along closest-preceding fingers:

   - c0/c1: the lookup terminates when this node or its successor owns
     the key (successor(K) = first node clockwise from K);
   - c2: candidate next hops are fingers strictly between this node
     and the key;
   - c3/c4: the closest preceding finger (minimal remaining ring
     distance) receives the forwarded lookup, with the hop appended to
     the lookup path for provenance/forensics. *)
let chord_src =
  {|
#key bestHop 0,1,2.
c0 lookupResult(@R, K, N, P) :- lookup(@N, K, R, P), self(@N, Id, M), K == Id.
c1 lookupResult(@R, K, SAddr, P) :- lookup(@N, K, R, P), self(@N, Id, M),
   succ(@N, SId, SAddr), K != Id, f_in_ring(K, Id, SId) == true.
c2 hop(@N, K, R, P, D, F) :- lookup(@N, K, R, P), self(@N, Id, M),
   succ(@N, SId, SAddr), K != Id, f_in_ring(K, Id, SId) == false,
   finger(@N, FId, F), FId != K, f_in_ring(FId, Id, K) == true,
   D := f_ring_dist(FId, K, M).
c2b hop(@N, K, R, P, D, F) :- lookup(@N, K, R, P), self(@N, Id, M),
   succ(@N, SId, SAddr), K != Id, f_in_ring(K, Id, SId) == false,
   finger(@N, FId, F), FId == K, D := 0.
c3 bestHop(@N, K, R, a_MIN<D>) :- hop(@N, K, R, P, D, F).
c4 lookup(@F, K, R, P2) :- bestHop(@N, K, R, D), hop(@N, K, R, P, D, F),
   P2 := f_append(P, F).
|}

let chord () = parse chord_src

(* Path-vector routing with import policies - the paper's BGP example
   in Section 3: "the path-vector protocol used in BGP carries the
   entire path during route advertisement, in order to allow ASes to
   enforce their respective policies."  A node only imports
   advertisements from neighbours listed in its [acceptFrom] policy
   relation, and the advertised path doubles as provenance for
   auditing. *)
let path_vector_policy_src =
  {|
#key bestRoute 0,1.
b1 route(@S, D, P) :- link(@S, D, C), P := f_init(S, D).
b2 advert(@Z, S, D, P) :- link(@S, Z, C), bestRoute(@S, D, P).
b3 route(@Z, D, P2) :- advert(@Z, S, D, P), acceptFrom(@Z, S),
   f_member(P, Z) == false, P2 := f_concat(Z, P).
b4 bestRouteLen(@S, D, a_MIN<L>) :- route(@S, D, P), L := f_size(P).
b5 bestRoute(@S, D, P) :- bestRouteLen(@S, D, L), route(@S, D, P),
   f_size(P) == L.
|}

let all : (string * string) list =
  [ ("reachable", reachable_src);
    ("sendlog-reachable", sendlog_reachable_src);
    ("best-path", best_path_src);
    ("sendlog-best-path", sendlog_best_path_src);
    ("distance-vector", distance_vector_src);
    ("diagnostics", diagnostics_src ~window_seconds:10 ~threshold:3);
    ("chord", chord_src);
    ("path-vector-policy", path_vector_policy_src) ]
