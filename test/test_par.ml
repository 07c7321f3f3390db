(* Tests for the domain pool (lib/par), the runtime's coalescing event
   loop and the hash-consed value/tuple interners: pool semantics,
   interning laws, coalescing on one shard, a lossy reliable
   run that gives the same fixpoint, provenance and message count on
   one shard as on two, and one signature check per accepted message
   on the sharded engine's pool. *)

open Engine

let rsa_bits = 384

(* --- pool ------------------------------------------------------------- *)

let test_pool_map () =
  let pool = Par.Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "jobs" 4 (Par.Pool.jobs pool);
      Alcotest.(check int) "empty input" 0
        (Array.length (Par.Pool.parallel_map pool (fun i -> i) [||]));
      let input = Array.init 1003 (fun i -> i) in
      let got = Par.Pool.parallel_map pool (fun i -> (i * 2) + 1) input in
      Alcotest.(check bool) "results in input order" true
        (got = Array.map (fun i -> (i * 2) + 1) input);
      Alcotest.(check bool) "singleton" true
        (Par.Pool.parallel_map pool string_of_int [| 9 |] = [| "9" |]))

let test_pool_exception () =
  let pool = Par.Pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
          ignore
            (Par.Pool.parallel_map pool
               (fun i -> if i = 7 then failwith "boom" else i)
               (Array.init 32 (fun i -> i))));
      (* the pool settles and stays usable after a failed map *)
      let got = Par.Pool.parallel_map pool (fun i -> i + 1) [| 1; 2; 3 |] in
      Alcotest.(check bool) "usable after failure" true (got = [| 2; 3; 4 |]))

let test_pool_invalid () =
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Par.Pool.create ~jobs:0))

(* --- hash-consing laws ------------------------------------------------ *)

let sample_values =
  [ Value.V_int 0;
    Value.V_int 2;
    Value.V_float 2.0 (* numerically equal to [V_int 2] *);
    Value.V_float 2.5;
    Value.V_bool true;
    Value.V_bool false;
    Value.V_str "2";
    Value.V_str "node3";
    Value.V_list [ Value.V_str "a"; Value.V_int 1 ];
    Value.V_list [] ]

let test_value_interning_laws () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let same_id = Value.id a = Value.id b in
          Alcotest.(check bool)
            (Printf.sprintf "id agrees with equal: %s vs %s" (Value.to_string a)
               (Value.to_string b))
            (Value.equal a b) same_id;
          Alcotest.(check bool) "id agrees with compare" (Value.compare a b = 0) same_id;
          if Value.equal a b then
            Alcotest.(check int) "hash respects equality" (Value.hash a) (Value.hash b))
        sample_values)
    sample_values;
  (* interning is stable across structurally fresh copies *)
  Alcotest.(check int) "stable id"
    (Value.id (Value.V_list [ Value.V_str "stable"; Value.V_int 42 ]))
    (Value.id (Value.V_list [ Value.V_str "stable"; Value.V_int 42 ]));
  (* cross-representation numeric equality shares an id *)
  Alcotest.(check int) "2 and 2.0 share an id" (Value.id (Value.V_int 2))
    (Value.id (Value.V_float 2.0));
  let before = Value.interned_count () in
  ignore (Value.id (Value.V_str (Printf.sprintf "fresh-%d" before)));
  Alcotest.(check int) "interner grows by one" (before + 1) (Value.interned_count ())

let sample_tuples =
  [ Tuple.make "link" [ Value.V_str "a"; Value.V_str "b"; Value.V_int 3 ];
    Tuple.make "link" [ Value.V_str "a"; Value.V_str "b"; Value.V_int 4 ];
    Tuple.make "link" [ Value.V_str "a"; Value.V_str "b"; Value.V_float 3.0 ];
    Tuple.make "path" [ Value.V_str "a"; Value.V_str "b"; Value.V_int 3 ];
    Tuple.make "path" [] ]

let test_tuple_interning_laws () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let same_id = Tuple.id a = Tuple.id b in
          Alcotest.(check bool)
            (Printf.sprintf "id agrees with equal: %s vs %s" (Tuple.to_string a)
               (Tuple.to_string b))
            (Tuple.equal a b) same_id;
          (* equal tuples share one canonical identity rendering *)
          if same_id then
            Alcotest.(check string) "shared identity" (Tuple.interned_identity a)
              (Tuple.interned_identity b))
        sample_tuples)
    sample_tuples;
  (* a first-interned tuple's cached identity is its own rendering *)
  let fresh = Tuple.make "internFreshRel" [ Value.V_int (Tuple.interned_count ()) ] in
  Alcotest.(check string) "identity of representative" (Tuple.identity fresh)
    (Tuple.interned_identity fresh);
  List.iter
    (fun t ->
      (* wire round-trip re-interns to the same id *)
      let t' = Net.Wire.decode_tuple (Net.Wire.encode_tuple t) in
      Alcotest.(check int)
        (Printf.sprintf "wire round-trip id: %s" (Tuple.to_string t))
        (Tuple.id t) (Tuple.id t'))
    sample_tuples;
  let before = Tuple.interned_count () in
  ignore (Tuple.id (Tuple.make "internFreshRel2" [ Value.V_int before ]));
  Alcotest.(check bool) "interner grows" true (Tuple.interned_count () > before)

(* --- one shard vs two --------------------------------------------------- *)

(* Fingerprint of a finished Best-Path run: the sorted bestPathCost and
   bestPath fixpoints, the provenance of every bestPathCost tuple, the
   total wire message count, and the shard count it ran on. *)
type fingerprint = {
  fp_cost : string list;
  fp_best : string list;
  fp_prov : string list;
  fp_msgs : int;
  fp_shards : int;
}

let fingerprint t =
  let sorted rel =
    List.map
      (fun (at, tu) -> at ^ "|" ^ Tuple.identity tu)
      (Core.Runtime.query_all t rel)
    |> List.sort compare
  in
  let prov =
    List.map
      (fun (at, tu) ->
        at ^ "|" ^ Tuple.identity tu ^ "|"
        ^ Provenance.Prov_expr.canonical_string (Core.Runtime.provenance_of t ~at tu))
      (Core.Runtime.query_all t "bestPathCost")
    |> List.sort compare
  in
  let st = Core.Runtime.stats t in
  { fp_cost = sorted "bestPathCost";
    fp_best = sorted "bestPath";
    fp_prov = prov;
    fp_msgs = st.Net.Stats.messages;
    fp_shards = Core.Runtime.shard_count t }

let run_once ~cfg ~topo ~directory ~seed =
  let t =
    Core.Runtime.create ~directory ~rng:(Crypto.Rng.create ~seed) ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  let fp = fingerprint t in
  Core.Runtime.shutdown t;
  fp

(* A lossy reliable SeNDLog run on one shard and on two reaches the
   same fixpoint and provenance and sends exactly as many messages:
   retransmission backoff staggers deliveries, so the measured clock
   has no batch to regroup.  The six nodes are split across two ASes,
   so each shard holds three. *)
let test_seq_par_lossy_reliable () =
  let seed = 705 in
  let random = Net.Topology.random (Crypto.Rng.create ~seed) ~n:6 () in
  let as_of = Hashtbl.create 6 in
  List.iteri (fun i n -> Hashtbl.replace as_of n (i mod 2)) random.nodes;
  let topo = Net.Topology.validated ~nodes:random.nodes ~links:random.links ~as_of in
  let directory =
    Sendlog.Principal.directory_for
      (Crypto.Rng.create ~seed:(seed + 1))
      ~rsa_bits topo.nodes
  in
  let cfg =
    Core.Config.with_fault_seed
      (Core.Config.with_reliable
         (Core.Config.with_loss { Core.Config.sendlog with Core.Config.rsa_bits } 0.15)
         true)
      71
  in
  let run shards =
    run_once ~cfg:(Core.Config.with_shards cfg shards) ~topo ~directory ~seed:(seed + 2)
  in
  let seq = run 1 and par = run 2 in
  Alcotest.(check int) "two shards" 2 par.fp_shards;
  Alcotest.(check (list string)) "bestPathCost fixpoint" seq.fp_cost par.fp_cost;
  Alcotest.(check (list string)) "bestPath fixpoint" seq.fp_best par.fp_best;
  Alcotest.(check (list string)) "provenance" seq.fp_prov par.fp_prov;
  Alcotest.(check int) "message count" seq.fp_msgs par.fp_msgs

(* The one event loop coalesces on every shard count: a node's work
   that arrives together (here, its link-fact installs at t = 0) waits
   in its receive queue and runs as one handler.  The registry is
   global, so the handler count is a delta and the handler-size
   high-water mark is cleared first. *)
let test_one_shard_coalesces () =
  let reg = Obs.Metrics.default in
  let batches = Obs.Metrics.counter reg "par.batches" in
  let group_max = Obs.Metrics.gauge reg "par.group_items_max" in
  let before = Obs.Metrics.value batches in
  Obs.Metrics.set group_max 0.0;
  let seed = 511 in
  let topo = Net.Topology.random (Crypto.Rng.create ~seed) ~n:7 () in
  let cfg = Core.Config.with_shards { Core.Config.ndlog with Core.Config.rsa_bits } 1 in
  let directory =
    Sendlog.Principal.directory_for (Crypto.Rng.create ~seed:(seed + 1)) ~rsa_bits
      topo.nodes
  in
  ignore (run_once ~cfg ~topo ~directory ~seed:(seed + 2));
  Alcotest.(check bool) "handlers counted" true
    (Obs.Metrics.value batches - before > 0);
  Alcotest.(check bool) "a handler ran several items" true
    (Obs.Metrics.gauge_value group_max > 1.0)

(* Every signature is checked once, by the handler that accepts its
   message.  On a lossy best-effort run with one shard per AS (N = 20
   spans two, so one shard drains on a pool domain), the RSA
   verifications performed ([crypto.verify_seconds] observations) must
   equal the verdicts the runtime counted ([signatures_verified], which
   counts failed checks too), so a message the network drops is never
   verified. *)
let test_verifies_what_it_accepts () =
  let seed = 2008 in
  let rng = Crypto.Rng.create ~seed in
  let topo = Net.Topology.random rng ~n:20 () in
  let cfg =
    Core.Config.with_shards
      (Core.Config.with_fault_seed
         (Core.Config.with_loss { Core.Config.sendlog with Core.Config.rsa_bits } 0.2)
         7)
      0
  in
  let t = Core.Runtime.create ~rng ~cfg ~topo ~program:(Ndlog.Programs.best_path ()) () in
  Alcotest.(check int) "one shard per AS" 2 (Core.Runtime.shard_count t);
  Obs.Metrics.reset Obs.Metrics.default;
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  Core.Runtime.shutdown t;
  let st = Core.Runtime.stats t in
  let verifications =
    Obs.Metrics.hist_count (Obs.Metrics.histogram Obs.Metrics.default "crypto.verify_seconds")
  in
  Alcotest.(check bool) "the network dropped messages" true (st.Net.Stats.drops > 0);
  Alcotest.(check int) "no forged messages" 0 st.Net.Stats.verification_failures;
  Alcotest.(check int) "one RSA verification per counted verdict"
    st.Net.Stats.signatures_verified verifications

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "pool map order + chunking" `Quick test_pool_map;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool rejects jobs < 1" `Quick test_pool_invalid;
    Alcotest.test_case "value interning laws" `Quick test_value_interning_laws;
    Alcotest.test_case "tuple interning laws" `Quick test_tuple_interning_laws;
    Alcotest.test_case "seq = par: lossy + reliable" `Quick test_seq_par_lossy_reliable;
    Alcotest.test_case "one shard coalesces" `Quick test_one_shard_coalesces;
    Alcotest.test_case "verifies exactly what it accepts" `Quick
      test_verifies_what_it_accepts ]
