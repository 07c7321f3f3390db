(* Tests for the domain pool (lib/par), the runtime's coalescing event
   loop and the value/tuple hashes: pool semantics, hash laws,
   coalescing on one shard, a lossy reliable
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

(* --- hash laws ----------------------------------------------------------- *)

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
    Value.V_list [ Value.V_str "a"; Value.V_float 1.0 ];
    Value.V_list [] ]

let test_value_hash_laws () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name = Printf.sprintf "%s vs %s" (Value.to_string a) (Value.to_string b) in
          Alcotest.(check bool) ("equal agrees with compare: " ^ name)
            (Value.compare a b = 0) (Value.equal a b);
          if Value.equal a b then
            Alcotest.(check int) ("hash respects equality: " ^ name) (Value.hash a)
              (Value.hash b))
        sample_values)
    sample_values;
  (* cross-representation numeric equality shares a hash *)
  Alcotest.(check bool) "2 equals 2.0" true (Value.equal (Value.V_int 2) (Value.V_float 2.0));
  Alcotest.(check int) "2 and 2.0 share a hash" (Value.hash (Value.V_int 2))
    (Value.hash (Value.V_float 2.0))

let sample_tuples =
  [ Tuple.make "link" [ Value.V_str "a"; Value.V_str "b"; Value.V_int 3 ];
    Tuple.make "link" [ Value.V_str "a"; Value.V_str "b"; Value.V_int 4 ];
    Tuple.make "link" [ Value.V_str "a"; Value.V_str "b"; Value.V_float 3.0 ];
    Tuple.make "path" [ Value.V_str "a"; Value.V_str "b"; Value.V_int 3 ];
    Tuple.make "path"
      [ Value.V_str "a"; Value.V_list [ Value.V_str "a"; Value.V_str "b" ]; Value.V_int 3 ];
    Tuple.make "path" [] ]

let test_tuple_hash_laws () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name = Printf.sprintf "%s vs %s" (Tuple.to_string a) (Tuple.to_string b) in
          Alcotest.(check bool) ("equal agrees with compare: " ^ name)
            (Tuple.compare a b = 0) (Tuple.equal a b);
          if Tuple.equal a b then begin
            Alcotest.(check int) ("hash respects equality: " ^ name) (Tuple.hash a)
              (Tuple.hash b);
            Alcotest.(check string) ("one identity: " ^ name) (Tuple.identity a)
              (Tuple.identity b)
          end)
        sample_tuples)
    sample_tuples;
  (* [link(a, b, 3)] and [link(a, b, 3.0)] are one tuple *)
  Alcotest.(check bool) "int and float arguments" true
    (Tuple.equal (List.nth sample_tuples 0) (List.nth sample_tuples 2));
  List.iter
    (fun t ->
      let name = Tuple.to_string t in
      (* the stored hash is the one a fresh build computes *)
      Alcotest.(check int) ("make = of_array: " ^ name) (Tuple.hash t)
        (Tuple.hash (Tuple.of_array t.Tuple.rel (Array.copy t.Tuple.args)));
      (* a wire round trip gives an equal tuple with the same hash *)
      let t' = Net.Wire.decode_tuple (Net.Wire.encode_tuple t) in
      Alcotest.(check bool) ("wire round trip equal: " ^ name) true (Tuple.equal t t');
      Alcotest.(check int) ("wire round trip hash: " ^ name) (Tuple.hash t) (Tuple.hash t');
      (* so a structurally equal copy finds the original's table entry *)
      let tbl = Tuple.Table.create 8 in
      List.iter (fun u -> Tuple.Table.replace tbl u (Tuple.to_string u)) sample_tuples;
      Alcotest.(check bool) ("table finds the copy: " ^ name) true
        (Tuple.Table.mem tbl t'))
    sample_tuples

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
    Alcotest.test_case "value hash laws" `Quick test_value_hash_laws;
    Alcotest.test_case "tuple hash laws" `Quick test_tuple_hash_laws;
    Alcotest.test_case "seq = par: lossy + reliable" `Quick test_seq_par_lossy_reliable;
    Alcotest.test_case "one shard coalesces" `Quick test_one_shard_coalesces;
    Alcotest.test_case "verifies exactly what it accepts" `Quick
      test_verifies_what_it_accepts ]
