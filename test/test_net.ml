(* Tests for the network substrate: event simulator, wire codec,
   stats, topology generation. *)

open Engine

(* --- event simulator --------------------------------------------------- *)

let test_sim_ordering () =
  let sim = Net.Event_sim.create () in
  let log = ref [] in
  Net.Event_sim.schedule sim ~delay:0.3 (fun () -> log := 3 :: !log);
  Net.Event_sim.schedule sim ~delay:0.1 (fun () -> log := 1 :: !log);
  Net.Event_sim.schedule sim ~delay:0.2 (fun () -> log := 2 :: !log);
  ignore (Net.Event_sim.run sim);
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 0.3 (Net.Event_sim.now sim)

let test_sim_fifo_ties () =
  let sim = Net.Event_sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Net.Event_sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Net.Event_sim.run sim);
  Alcotest.(check (list int)) "ties break by seq" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cascading () =
  (* events scheduled from inside events run at their proper times *)
  let sim = Net.Event_sim.create () in
  let log = ref [] in
  Net.Event_sim.schedule sim ~delay:0.1 (fun () ->
      log := `A :: !log;
      Net.Event_sim.schedule sim ~delay:0.05 (fun () -> log := `C :: !log));
  Net.Event_sim.schedule sim ~delay:0.12 (fun () -> log := `B :: !log);
  ignore (Net.Event_sim.run sim);
  Alcotest.(check bool) "interleaved" true (List.rev !log = [ `A; `B; `C ])

let test_sim_until_horizon () =
  let sim = Net.Event_sim.create () in
  let count = ref 0 in
  List.iter
    (fun d -> Net.Event_sim.schedule sim ~delay:d (fun () -> incr count))
    [ 0.1; 0.2; 0.9 ];
  ignore (Net.Event_sim.run ~until:0.5 sim);
  Alcotest.(check int) "only events before horizon" 2 !count;
  Alcotest.(check int) "one pending" 1 (Net.Event_sim.pending sim);
  ignore (Net.Event_sim.run sim);
  Alcotest.(check int) "rest runs later" 3 !count

let test_sim_negative_delay_rejected () =
  let sim = Net.Event_sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Event_sim.schedule: negative delay") (fun () ->
      Net.Event_sim.schedule sim ~delay:(-1.0) (fun () -> ()))

let test_sim_heap_shrinks () =
  (* a burst of 10k events grows the heap; draining releases it back
     toward the 64-slot floor instead of pinning the peak array *)
  let sim = Net.Event_sim.create () in
  let base = Net.Event_sim.queue_capacity sim in
  Alcotest.(check int) "initial capacity" 64 base;
  for i = 1 to 10_000 do
    Net.Event_sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
  done;
  Alcotest.(check bool) "grew" true (Net.Event_sim.queue_capacity sim >= 10_000);
  ignore (Net.Event_sim.run sim);
  Alcotest.(check int) "shrank back to floor" 64 (Net.Event_sim.queue_capacity sim);
  Alcotest.(check (float 0.5)) "capacity gauge tracks" 64.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge Obs.Metrics.default "sim.queue_capacity"));
  (* ordering still holds across shrinks *)
  let log = ref [] in
  List.iter
    (fun d -> Net.Event_sim.schedule sim ~delay:d (fun () -> log := d :: !log))
    [ 0.5; 0.2; 0.9; 0.1 ];
  ignore (Net.Event_sim.run sim);
  Alcotest.(check (list (float 1e-9))) "still ordered" [ 0.1; 0.2; 0.5; 0.9 ]
    (List.rev !log)

let prop_sim_heap_order =
  (* any schedule order drains in nondecreasing timestamp order *)
  QCheck.Test.make ~name:"heap drains in order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (float_bound_inclusive 100.0))
    (fun delays ->
      let sim = Net.Event_sim.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          Net.Event_sim.schedule sim ~delay:d (fun () ->
              times := Net.Event_sim.now sim :: !times))
        delays;
      ignore (Net.Event_sim.run sim);
      let ts = List.rev !times in
      List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length ts - 1) ts) (List.tl ts)
      || ts = [])

(* --- wire codec ---------------------------------------------------------- *)

let value_gen : Value.t QCheck.arbitrary =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof
        [ map (fun i -> Value.V_int i) int;
          map (fun f -> Value.V_float f) (float_bound_inclusive 1e6);
          map (fun b -> Value.V_bool b) bool;
          map (fun s -> Value.V_str s) (string_size (int_bound 12)) ]
    else
      frequency
        [ (3, map (fun i -> Value.V_int i) int);
          (1, map (fun l -> Value.V_list l) (list_size (int_bound 4) (gen (depth - 1))));
          (2, map (fun s -> Value.V_str s) (string_size (int_bound 12))) ]
  in
  QCheck.make ~print:Value.to_string (gen 2)

let tuple_gen : Tuple.t QCheck.arbitrary =
  QCheck.make ~print:Tuple.to_string
    QCheck.Gen.(
      map2
        (fun name args -> Tuple.make name args)
        (map (fun s -> "rel" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_bound 6)))
        (list_size (int_bound 5) (QCheck.gen value_gen)))

let prop_tuple_codec_roundtrip =
  QCheck.Test.make ~name:"tuple encode/decode roundtrip" ~count:300 tuple_gen (fun t ->
      Tuple.equal t (Net.Wire.decode_tuple (Net.Wire.encode_tuple t)))

let prop_tuple_wire_size =
  QCheck.Test.make ~name:"tuple_wire_size = encoded length" ~count:300 tuple_gen (fun t ->
      Net.Wire.tuple_wire_size t = String.length (Net.Wire.encode_tuple t))

(* --- arena codec vs the legacy Buffer codec ------------------------------

   The arena writers replaced a per-field [Buffer] implementation; the
   original is kept here, verbatim, as the byte-identity oracle.  Any
   divergence would silently invalidate every signature in flight
   (signatures cover the canonical encoding), so the property is
   byte-for-byte equality on every message kind, auth variant, and
   optional block combination. *)

let ref_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (n land 0xFF))

let ref_string b s =
  ref_u32 b (String.length s);
  Buffer.add_string b s

let rec ref_value b (v : Value.t) =
  match v with
  | Value.V_int i ->
    Buffer.add_char b '\001';
    Buffer.add_int64_be b (Int64.of_int i)
  | Value.V_float f ->
    Buffer.add_char b '\002';
    Buffer.add_int64_be b (Int64.bits_of_float f)
  | Value.V_bool x ->
    Buffer.add_char b '\003';
    Buffer.add_char b (if x then '\001' else '\000')
  | Value.V_str s ->
    Buffer.add_char b '\004';
    ref_string b s
  | Value.V_list l ->
    Buffer.add_char b '\005';
    ref_u32 b (List.length l);
    List.iter (ref_value b) l

let ref_tuple b (t : Tuple.t) =
  ref_string b t.Tuple.rel;
  ref_u32 b (Array.length t.Tuple.args);
  Array.iter (ref_value b) t.Tuple.args

let reference_encode_message (m : Net.Wire.message) : string =
  let open Net.Wire in
  let b = Buffer.create 128 in
  Buffer.add_char b
    (match m.msg_kind with K_data -> 'D' | K_retract -> 'R' | K_ack -> 'A');
  ref_string b m.msg_src;
  ref_string b m.msg_dst;
  ref_u32 b m.msg_seq;
  let tb = Buffer.create 64 in
  ref_tuple tb m.msg_tuple;
  ref_u32 b (Buffer.length tb);
  Buffer.add_buffer b tb;
  (match m.msg_auth with
  | A_none -> Buffer.add_char b '\000'
  | A_principal p ->
    Buffer.add_char b '\001';
    ref_string b p
  | A_signature { principal; signature } ->
    Buffer.add_char b '\003';
    ref_string b principal;
    ref_string b signature);
  (match m.msg_provenance with
  | None -> Buffer.add_char b '\000'
  | Some p ->
    Buffer.add_char b '\001';
    ref_string b p);
  (match m.msg_trace with
  | None -> Buffer.add_char b '\000'
  | Some (trace_id, span_id) ->
    Buffer.add_char b '\001';
    ref_u32 b trace_id;
    ref_u32 b span_id);
  Buffer.contents b

let reference_signed_bytes ~src ~dst tuple =
  let b = Buffer.create 64 in
  ref_string b src;
  ref_string b dst;
  ref_tuple b tuple;
  Buffer.contents b

let message_gen : Net.Wire.message QCheck.arbitrary =
  let open QCheck.Gen in
  let short = string_size (int_bound 10) in
  let auth_gen =
    oneof
      [ return Net.Wire.A_none;
        map (fun p -> Net.Wire.A_principal p) short;
        map
          (fun (p, s) -> Net.Wire.A_signature { principal = p; signature = s })
          (pair short short) ]
  in
  QCheck.make
    ~print:(fun m -> String.escaped (Net.Wire.encode_message m))
    (map
       (fun ((kind, src, dst, seq), (tuple, auth, prov, trace)) ->
         { Net.Wire.msg_kind = kind;
           msg_src = src;
           msg_dst = dst;
           msg_seq = seq;
           msg_tuple = tuple;
           msg_auth = auth;
           msg_provenance = prov;
           msg_trace = trace })
       (pair
          (quad
             (oneofl [ Net.Wire.K_data; Net.Wire.K_retract; Net.Wire.K_ack ])
             short short (int_bound 100_000))
          (quad (QCheck.gen tuple_gen) auth_gen (opt short)
             (opt (pair (int_bound 10_000) (int_bound 10_000))))))

let prop_message_codec_byte_identical =
  QCheck.Test.make ~name:"arena encode = legacy Buffer encode" ~count:300 message_gen
    (fun m -> Net.Wire.encode_message m = reference_encode_message m)

let prop_signed_bytes_byte_identical =
  QCheck.Test.make ~name:"signed bytes = legacy Buffer encode" ~count:200 tuple_gen
    (fun t ->
      Net.Wire.signed_bytes ~src:"src-n" ~dst:"dst-n" t
      = reference_signed_bytes ~src:"src-n" ~dst:"dst-n" t
      && Net.Wire.retract_signed_bytes ~src:"src-n" ~dst:"dst-n" t
         = "retract|" ^ reference_signed_bytes ~src:"src-n" ~dst:"dst-n" t)

let prop_message_roundtrip =
  QCheck.Test.make ~name:"message encode/decode roundtrip" ~count:300 message_gen
    (fun m -> Net.Wire.decode_message (Net.Wire.encode_message m) = m)

(* Every strict prefix of a valid encoding must fail as a *truncated
   message* — the string and slice decoders agree, and the arena's
   [Bounds_error] never leaks through the codec boundary. *)
let prop_message_truncation_detected =
  QCheck.Test.make ~name:"truncated message prefixes rejected" ~count:40 message_gen
    (fun m ->
      let bytes = Net.Wire.encode_message m in
      let slice = Net.Arena.of_string bytes in
      let rejects k =
        (match Net.Wire.decode_message (String.sub bytes 0 k) with
        | _ -> false
        | exception Net.Wire.Decode_error _ -> true
        | exception _ -> false)
        &&
        match Net.Wire.decode_message_slice (Net.Arena.sub slice ~pos:0 ~len:k) with
        | _ -> false
        | exception Net.Wire.Decode_error _ -> true
        | exception _ -> false
      in
      let ok = ref true in
      for k = 0 to String.length bytes - 1 do
        if not (rejects k) then ok := false
      done;
      !ok)

(* Change 1-3 bytes of [s]: (position, non-zero xor) pairs, the
   position taken modulo the length. *)
let mutate (s : string) (flips : (int * int) list) : string =
  let b = Bytes.of_string s in
  List.iter
    (fun (pos, x) ->
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
    flips;
  Bytes.to_string b

let flips_gen = QCheck.Gen.(list_size (int_range 1 3) (pair (int_bound 100_000) (int_range 1 255)))

(* Received bytes are untrusted: whatever a few changed bytes make of
   an encoded message, the decoder returns a message or raises its
   declared error. *)
let prop_message_mutation =
  QCheck.Test.make ~name:"mutated messages raise only Decode_error" ~count:10_000
    (QCheck.pair message_gen (QCheck.make flips_gen))
    (fun (m, flips) ->
      let bytes = mutate (Net.Wire.encode_message m) flips in
      match Net.Wire.decode_message_slice (Net.Arena.of_string bytes) with
      | (_ : Net.Wire.message) -> true
      | exception Net.Wire.Decode_error _ -> true)

let prop_message_size_identity =
  QCheck.Test.make ~name:"size = encoded length - trace bytes" ~count:300 message_gen
    (fun m ->
      Net.Wire.size m
      = String.length (Net.Wire.encode_message m) - Net.Wire.trace_bytes m)

(* The condensed-provenance framing keeps the same contract: any
   truncation of a valid block — name table or BDD tail — surfaces as
   [Condense.Wire_error], never a leaked arena [Bounds_error] or BDD
   deserialize error. *)
let test_condense_truncation_symmetric () =
  let module Condense = Provenance.Condense in
  let module Prov_expr = Provenance.Prov_expr in
  let e =
    Prov_expr.plus_list
      (List.map
         (fun i ->
           Prov_expr.times_list
             [ Prov_expr.base (Printf.sprintf "principal-%d" i);
               Prov_expr.base "shared" ])
         (List.init 6 (fun i -> i)))
  in
  let wire = Condense.to_wire (Condense.create_ctx ()) e in
  for k = 0 to String.length wire - 1 do
    let prefix = String.sub wire 0 k in
    let check what decode =
      match decode () with
      | (_ : Prov_expr.t) ->
        Alcotest.failf "%s: %d-byte prefix of a %d-byte block decoded" what k
          (String.length wire)
      | exception Condense.Wire_error _ -> ()
      | exception exn ->
        Alcotest.failf "%s: prefix length %d leaked %s" what k
          (Printexc.to_string exn)
    in
    check "of_wire" (fun () -> Condense.of_wire (Condense.create_ctx ()) prefix);
    check "of_wire_slice" (fun () ->
        Condense.of_wire_slice (Condense.create_ctx ()) (Net.Arena.of_string prefix))
  done;
  (* the untruncated block still decodes, and to the same semantics *)
  let decoded = Condense.of_wire (Condense.create_ctx ()) wire in
  Alcotest.(check (list string)) "bases survive"
    (List.sort_uniq compare (Prov_expr.bases e))
    (List.sort_uniq compare (Prov_expr.bases decoded))

let test_message_roundtrip_sizes () =
  let tuple = Tuple.make "path" [ Value.V_str "a"; Value.V_list [ Value.V_str "a"; Value.V_str "b" ]; Value.V_int 3 ] in
  let mk auth prov =
    { Net.Wire.msg_kind = Net.Wire.K_data; msg_src = "a"; msg_dst = "b"; msg_seq = 7; msg_tuple = tuple;
      msg_auth = auth; msg_provenance = prov; msg_trace = None }
  in
  List.iter
    (fun m ->
      let encoded = Net.Wire.encode_message m in
      Alcotest.(check int) "size = encoded length" (String.length encoded) (Net.Wire.size m);
      let sb = Net.Wire.size_breakdown m in
      Alcotest.(check int) "breakdown sums" (Net.Wire.size m) (Net.Wire.total sb))
    [ mk Net.Wire.A_none None;
      mk (Net.Wire.A_principal "a") None;
      mk (Net.Wire.A_signature { principal = "a"; signature = String.make 48 's' })
        (Some (String.make 20 'p')) ]

let test_trace_context_excluded_from_size () =
  (* The trace context is observability metadata, not protocol payload:
     it rides in the encoding but is excluded from the modeled [size],
     so a traced run and an untraced run see identical wire costs and
     hence an identical virtual timeline. *)
  let tuple = Tuple.make "p" [ Value.V_int 1 ] in
  let mk trace =
    { Net.Wire.msg_kind = Net.Wire.K_data; msg_src = "a"; msg_dst = "b"; msg_seq = 3;
      msg_tuple = tuple; msg_auth = Net.Wire.A_principal "a"; msg_provenance = None;
      msg_trace = trace }
  in
  let plain = mk None in
  let traced = mk (Some (42, 1337)) in
  Alcotest.(check int) "modeled size identical with and without context"
    (Net.Wire.size plain) (Net.Wire.size traced);
  Alcotest.(check int) "context costs 8 encoded bytes"
    (String.length (Net.Wire.encode_message plain) + 8)
    (String.length (Net.Wire.encode_message traced));
  Alcotest.(check int) "trace_bytes none" 0 (Net.Wire.trace_bytes plain);
  Alcotest.(check int) "trace_bytes some" 8 (Net.Wire.trace_bytes traced);
  Alcotest.(check int) "breakdown still sums to modeled size"
    (Net.Wire.size traced) (Net.Wire.total (Net.Wire.size_breakdown traced));
  (* The encodings differ (the context is really there), and acks never
     carry a context. *)
  Alcotest.(check bool) "encodings differ" true
    (Net.Wire.encode_message plain <> Net.Wire.encode_message traced);
  let ack = Net.Wire.ack ~src:"b" ~dst:"a" ~seq:3 in
  Alcotest.(check bool) "ack carries no trace context" true
    (ack.Net.Wire.msg_trace = None)

let test_auth_ordering_sizes () =
  (* the configurations must cost what the paper says: none <
     cleartext < rsa signature *)
  let tuple = Tuple.make "p" [ Value.V_int 1 ] in
  let size auth =
    Net.Wire.size
      { Net.Wire.msg_kind = Net.Wire.K_data; msg_src = "a"; msg_dst = "b"; msg_seq = 0; msg_tuple = tuple;
        msg_auth = auth; msg_provenance = None; msg_trace = None }
  in
  let none = size Net.Wire.A_none in
  let clear = size (Net.Wire.A_principal "alice") in
  let rsa = size (Net.Wire.A_signature { principal = "alice"; signature = String.make 48 's' }) in
  Alcotest.(check bool) "ordering" true (none < clear && clear < rsa)

let test_auth_tag_2_rejected () =
  (* Auth tags are 0 (none), 1 (cleartext principal) and 3 (RSA
     signature); 2 is unassigned, so a message carrying it is
     malformed.  The tag byte follows the length-prefixed tuple: it is
     where an A_none encoding's last three bytes (auth, provenance and
     trace tags) begin. *)
  let tuple = Tuple.make "p" [ Value.V_int 1 ] in
  let m =
    { Net.Wire.msg_kind = Net.Wire.K_data; msg_src = "a"; msg_dst = "b"; msg_seq = 5;
      msg_tuple = tuple;
      msg_auth = Net.Wire.A_signature { principal = "a"; signature = String.make 48 's' };
      msg_provenance = None; msg_trace = None }
  in
  let at =
    String.length (Net.Wire.encode_message { m with msg_auth = Net.Wire.A_none }) - 3
  in
  let bytes = Bytes.of_string (Net.Wire.encode_message m) in
  Alcotest.(check char) "signature tag" '\003' (Bytes.get bytes at);
  Bytes.set bytes at '\002';
  Alcotest.(check bool) "tag 2 is a decode error" true
    (match Net.Wire.decode_message (Bytes.to_string bytes) with
    | exception Net.Wire.Decode_error _ -> true
    | _ -> false)

let test_signed_bytes_binds_endpoints () =
  let tuple = Tuple.make "p" [ Value.V_int 1 ] in
  let b1 = Net.Wire.signed_bytes ~src:"a" ~dst:"b" tuple in
  let b2 = Net.Wire.signed_bytes ~src:"a" ~dst:"c" tuple in
  Alcotest.(check bool) "dst bound into signature" true (b1 <> b2)

let test_decode_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (match Net.Wire.decode_tuple "\xFF\xFF\xFF\xFF" with
    | exception Net.Wire.Decode_error _ -> true
    | _ -> false)

(* Relation "p", arity 0xFFFF_FFFF, one bool: the count must be
   checked against the bytes left before any array is allocated. *)
let test_decode_huge_arity () =
  let s = "\000\000\000\001p\xFF\xFF\xFF\xFF\003\001" in
  Alcotest.(check int) "11-byte encoding" 11 (String.length s);
  Alcotest.(check bool) "huge arity rejected" true
    (match Net.Wire.decode_tuple s with
    | exception Net.Wire.Decode_error _ -> true
    | _ -> false)

(* --- stats ------------------------------------------------------------------ *)

let test_stats_accounting () =
  let stats = Net.Stats.create () in
  let tuple = Tuple.make "p" [ Value.V_int 1 ] in
  let msg =
    { Net.Wire.msg_kind = Net.Wire.K_data; msg_src = "a"; msg_dst = "b"; msg_seq = 0; msg_tuple = tuple;
      msg_auth = Net.Wire.A_none; msg_provenance = None; msg_trace = None }
  in
  Net.Stats.record_message stats msg;
  Net.Stats.record_message stats msg;
  Alcotest.(check int) "messages" 2 stats.messages;
  Alcotest.(check int) "total" (2 * Net.Wire.size msg) stats.bytes_total;
  Alcotest.(check bool) "megabytes positive" true (Net.Stats.megabytes stats > 0.0)

(* --- topology ------------------------------------------------------------------ *)

let test_topology_deterministic () =
  let t1 = Net.Topology.random (Crypto.Rng.create ~seed:5) ~n:20 () in
  let t2 = Net.Topology.random (Crypto.Rng.create ~seed:5) ~n:20 () in
  let show t =
    String.concat ";"
      (List.map
         (fun (l : Net.Topology.link) -> Printf.sprintf "%s>%s:%d" l.l_src l.l_dst l.l_cost)
         t.Net.Topology.links)
  in
  Alcotest.(check string) "same seed same topology" (show t1) (show t2);
  let t3 = Net.Topology.random (Crypto.Rng.create ~seed:6) ~n:20 () in
  Alcotest.(check bool) "different seed differs" true (show t1 <> show t3)

let test_topology_outdegree () =
  let t = Net.Topology.random (Crypto.Rng.create ~seed:7) ~n:50 ~outdegree:3 () in
  let avg = Net.Topology.avg_outdegree t in
  Alcotest.(check bool) (Printf.sprintf "avg %.2f near 3" avg) true (avg >= 2.0 && avg <= 3.5);
  (* no self loops, no duplicates *)
  List.iter
    (fun (l : Net.Topology.link) ->
      Alcotest.(check bool) "no self loop" true (l.l_src <> l.l_dst))
    t.links;
  let pairs = List.map (fun (l : Net.Topology.link) -> (l.l_src, l.l_dst)) t.links in
  Alcotest.(check int) "no duplicate links" (List.length pairs)
    (List.length (List.sort_uniq compare pairs))

let test_topology_connected () =
  (* the embedded ring guarantees strong connectivity *)
  let t = Net.Topology.random (Crypto.Rng.create ~seed:8) ~n:25 () in
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (l : Net.Topology.link) ->
      Hashtbl.replace adj l.l_src (l.l_dst :: Option.value (Hashtbl.find_opt adj l.l_src) ~default:[]))
    t.links;
  let reachable_from n0 =
    let seen = Hashtbl.create 32 in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        List.iter go (Option.value (Hashtbl.find_opt adj n) ~default:[])
      end
    in
    go n0;
    Hashtbl.length seen
  in
  Alcotest.(check int) "all reachable" 25 (reachable_from "n0")

let test_topology_costs_in_range () =
  let t = Net.Topology.random (Crypto.Rng.create ~seed:9) ~n:30 ~max_cost:10 () in
  List.iter
    (fun (l : Net.Topology.link) ->
      Alcotest.(check bool) "cost in [1,10]" true (l.l_cost >= 1 && l.l_cost <= 10))
    t.links

let test_topology_fixed_shapes () =
  let line = Net.Topology.line ~n:4 () in
  Alcotest.(check int) "line links" 6 (List.length line.links);
  let ring = Net.Topology.ring ~n:4 () in
  Alcotest.(check int) "ring links" 4 (List.length ring.links);
  let star = Net.Topology.star ~n:4 () in
  Alcotest.(check int) "star links" 6 (List.length star.links);
  let paper = Net.Topology.paper_example () in
  Alcotest.(check (list string)) "paper nodes" [ "a"; "b"; "c" ] paper.nodes

let test_topology_as_assignment () =
  let t = Net.Topology.random (Crypto.Rng.create ~seed:10) ~n:40 () in
  let ases = List.sort_uniq compare (List.map (Net.Topology.as_of t) t.nodes) in
  Alcotest.(check int) "four ASes for 40 nodes" 4 (List.length ases)

let test_link_facts () =
  let t = Net.Topology.paper_example () in
  let with_cost = Net.Topology.link_facts ~with_cost:true t in
  let without = Net.Topology.link_facts ~with_cost:false t in
  Alcotest.(check int) "three facts" 3 (List.length with_cost);
  Alcotest.(check int) "arity 3" 3 (Tuple.arity (List.hd with_cost));
  Alcotest.(check int) "arity 2" 2 (Tuple.arity (List.hd without))

(* --- fault model ------------------------------------------------------- *)

let test_fault_decide_deterministic () =
  let m =
    Net.Fault.make ~seed:42
      ~default_spec:(Net.Fault.uniform ~drop:0.3 ~duplicate:0.2 ~reorder:0.5 ())
      ()
  in
  let ident i = Printf.sprintf "m%d" i in
  let verdicts m =
    List.init 200 (fun i ->
        Net.Fault.decide m ~src:"n0" ~dst:"n1" ~ident:(ident i) ~attempt:0)
  in
  Alcotest.(check bool) "same seed, same verdicts" true (verdicts m = verdicts m);
  Alcotest.(check bool) "different seed, different verdicts" false
    (verdicts m = verdicts (Net.Fault.with_seed m 43));
  (* a retransmission attempt rolls fresh dice for the same identity *)
  Alcotest.(check bool) "attempts are independent" false
    (List.init 200 (fun i ->
         Net.Fault.decide m ~src:"n0" ~dst:"n1" ~ident:(ident i) ~attempt:1)
    = verdicts m)

(* Satellite of the sharded-engine work: verdicts are keyed by message
   identity, never by enqueue order, so any permutation of the query
   order — which is what a different [--shards] value induces — yields
   the same per-message fate. *)
let test_fault_verdicts_order_independent () =
  let m =
    Net.Fault.make ~seed:99
      ~default_spec:(Net.Fault.uniform ~drop:0.3 ~duplicate:0.2 ~reorder:0.4 ())
      ()
  in
  let idents = List.init 100 (fun i -> Printf.sprintf "tuple|%d" i) in
  let forward =
    List.map (fun ident -> Net.Fault.decide m ~src:"a" ~dst:"b" ~ident ~attempt:0) idents
  in
  let backward =
    List.rev_map
      (fun ident -> Net.Fault.decide m ~src:"a" ~dst:"b" ~ident ~attempt:0)
      (List.rev idents)
  in
  Alcotest.(check bool) "reversed query order, same verdicts" true (forward = backward);
  (* interleaving queries for other channels must not perturb them *)
  let interleaved =
    List.map
      (fun ident ->
        ignore (Net.Fault.decide m ~src:"b" ~dst:"a" ~ident ~attempt:0);
        ignore (Net.Fault.decide m ~src:"a" ~dst:"b" ~ident ~attempt:1);
        Net.Fault.decide m ~src:"a" ~dst:"b" ~ident ~attempt:0)
      idents
  in
  Alcotest.(check bool) "interleaved queries, same verdicts" true (forward = interleaved)

let test_fault_rates_sane () =
  let m =
    Net.Fault.make ~seed:7
      ~default_spec:(Net.Fault.uniform ~drop:0.2 ~duplicate:0.1 ())
      ()
  in
  let n = 2000 in
  let dropped = ref 0 and dup = ref 0 in
  for seq = 0 to n - 1 do
    match
      Net.Fault.decide m ~src:"a" ~dst:"b" ~ident:(string_of_int seq) ~attempt:0
    with
    | [] -> incr dropped
    | [ _; _ ] -> incr dup
    | _ -> ()
  done;
  let frac r = float_of_int !r /. float_of_int n in
  Alcotest.(check bool) "drop rate near 0.2" true (abs_float (frac dropped -. 0.2) < 0.05);
  Alcotest.(check bool) "dup rate near 0.1" true (abs_float (frac dup -. 0.1) < 0.05);
  (* an ideal model never misbehaves *)
  Alcotest.(check bool) "ideal delivers exactly once" true
    (List.init 100 (fun seq ->
         Net.Fault.decide Net.Fault.ideal ~src:"a" ~dst:"b"
           ~ident:(string_of_int seq) ~attempt:0)
    |> List.for_all (fun v -> v = [ 0.0 ]))

let test_fault_crash_schedule () =
  let c = { Net.Fault.cr_node = "n2"; cr_at = 1.0; cr_restart = Some 3.0 } in
  let m = Net.Fault.make ~crashes:[ c ] () in
  Alcotest.(check bool) "up before" false (Net.Fault.is_down m ~now:0.5 "n2");
  Alcotest.(check bool) "down during" true (Net.Fault.is_down m ~now:2.0 "n2");
  Alcotest.(check bool) "up after restart" false (Net.Fault.is_down m ~now:3.0 "n2");
  Alcotest.(check bool) "other nodes unaffected" false (Net.Fault.is_down m ~now:2.0 "n1");
  Alcotest.(check (option (float 1e-9))) "restart time" (Some 3.0)
    (Net.Fault.restart_after m ~now:2.0 "n2");
  Alcotest.(check (option (float 1e-9))) "no restart when up" None
    (Net.Fault.restart_after m ~now:0.5 "n2")

let test_fault_crash_spec_syntax () =
  (match Net.Fault.crash_of_string "n3@1.5+2" with
  | Ok c ->
    Alcotest.(check string) "node" "n3" c.Net.Fault.cr_node;
    Alcotest.(check (float 1e-9)) "at" 1.5 c.Net.Fault.cr_at;
    Alcotest.(check (option (float 1e-9))) "restart" (Some 3.5) c.Net.Fault.cr_restart
  | Error e -> Alcotest.fail e);
  (match Net.Fault.crash_of_string "n3@2" with
  | Ok c -> Alcotest.(check (option (float 1e-9))) "down forever" None c.Net.Fault.cr_restart
  | Error e -> Alcotest.fail e);
  (match Net.Fault.crash_of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus crash spec"
  | Error _ -> ());
  (* round trip through the printer *)
  match Net.Fault.crash_of_string "n1@0.5+1" with
  | Ok c -> (
    match Net.Fault.crash_of_string (Net.Fault.crash_to_string c) with
    | Ok c' -> Alcotest.(check bool) "round trip" true (c = c')
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* --- topology link validation ------------------------------------------ *)

let test_topology_rejects_duplicate_links () =
  let link s d =
    { Net.Topology.l_src = s; l_dst = d; l_cost = 1; l_latency = 0.01 }
  in
  Alcotest.check_raises "duplicate directed link"
    (Invalid_argument "Topology: duplicate directed link a -> b") (fun () ->
      ignore
        (Net.Topology.validated ~nodes:[ "a"; "b" ]
           ~links:[ link "a" "b"; link "a" "b" ]
           ~as_of:(Hashtbl.create 2)));
  (* opposite directions are two distinct links *)
  let t =
    Net.Topology.validated ~nodes:[ "a"; "b" ]
      ~links:[ link "a" "b"; link "b" "a" ]
      ~as_of:(Hashtbl.create 2)
  in
  Alcotest.(check int) "both directions kept" 2 (List.length t.Net.Topology.links)

let test_topology_latency_between () =
  let t = Net.Topology.paper_example () in
  Alcotest.(check (float 1e-9)) "adjacent link" 0.01
    (Net.Topology.latency_between t ~src:"a" ~dst:"b");
  Alcotest.check_raises "missing link is an error"
    (Invalid_argument "Topology.latency_between: no directed link c -> a") (fun () ->
      ignore (Net.Topology.latency_between t ~src:"c" ~dst:"a"));
  (* the runtime's delivery path falls back to the overlay default *)
  Alcotest.(check (float 1e-9)) "overlay fallback" Net.Topology.overlay_latency
    (Net.Topology.delivery_latency t ~src:"c" ~dst:"a");
  Alcotest.(check (float 1e-9)) "adjacent delivery" 0.01
    (Net.Topology.delivery_latency t ~src:"a" ~dst:"b")

(* --- wire kinds and ACKs ----------------------------------------------- *)

let test_wire_ack_and_kinds () =
  let tuple = Tuple.make "ping" [ Value.V_int 1 ] in
  let data =
    { Net.Wire.msg_kind = Net.Wire.K_data; msg_src = "a"; msg_dst = "b"; msg_seq = 5;
      msg_tuple = tuple; msg_auth = Net.Wire.A_none; msg_provenance = None;
      msg_trace = None }
  in
  let ack = Net.Wire.ack ~src:"b" ~dst:"a" ~seq:5 in
  Alcotest.(check bool) "ack kind" true (ack.Net.Wire.msg_kind = Net.Wire.K_ack);
  Alcotest.(check int) "ack seq names the data seq" 5 ack.Net.Wire.msg_seq;
  (* kinds are distinguished on the wire *)
  let enc_data = Net.Wire.encode_message data in
  let enc_ack = Net.Wire.encode_message ack in
  Alcotest.(check char) "data kind byte" 'D' enc_data.[0];
  Alcotest.(check char) "ack kind byte" 'A' enc_ack.[0];
  (* ACKs are small: no payload args, no auth, no provenance *)
  Alcotest.(check bool) "ack smaller than data" true
    (Net.Wire.size ack < Net.Wire.size data);
  let sb = Net.Wire.size_breakdown ack in
  Alcotest.(check int) "breakdown totals" (Net.Wire.size ack) (Net.Wire.total sb)

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "sim ordering" `Quick test_sim_ordering;
    Alcotest.test_case "sim FIFO ties" `Quick test_sim_fifo_ties;
    Alcotest.test_case "sim cascading" `Quick test_sim_cascading;
    Alcotest.test_case "sim horizon" `Quick test_sim_until_horizon;
    Alcotest.test_case "sim rejects negative delay" `Quick test_sim_negative_delay_rejected;
    Alcotest.test_case "sim heap shrinks after burst" `Quick test_sim_heap_shrinks;
    Alcotest.test_case "message sizes" `Quick test_message_roundtrip_sizes;
    Alcotest.test_case "trace context excluded from size" `Quick
      test_trace_context_excluded_from_size;
    Alcotest.test_case "auth size ordering" `Quick test_auth_ordering_sizes;
    Alcotest.test_case "auth tag 2 rejected" `Quick test_auth_tag_2_rejected;
    Alcotest.test_case "signed bytes bind endpoints" `Quick test_signed_bytes_binds_endpoints;
    Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
    Alcotest.test_case "decode huge arity" `Quick test_decode_huge_arity;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "topology deterministic" `Quick test_topology_deterministic;
    Alcotest.test_case "topology outdegree" `Quick test_topology_outdegree;
    Alcotest.test_case "topology connected" `Quick test_topology_connected;
    Alcotest.test_case "topology costs" `Quick test_topology_costs_in_range;
    Alcotest.test_case "fixed shapes" `Quick test_topology_fixed_shapes;
    Alcotest.test_case "AS assignment" `Quick test_topology_as_assignment;
    Alcotest.test_case "link facts" `Quick test_link_facts;
    Alcotest.test_case "fault verdicts deterministic" `Quick test_fault_decide_deterministic;
    Alcotest.test_case "fault verdicts order independent" `Quick
      test_fault_verdicts_order_independent;
    Alcotest.test_case "fault rates sane" `Quick test_fault_rates_sane;
    Alcotest.test_case "fault crash schedule" `Quick test_fault_crash_schedule;
    Alcotest.test_case "fault crash spec syntax" `Quick test_fault_crash_spec_syntax;
    Alcotest.test_case "topology rejects duplicate links" `Quick
      test_topology_rejects_duplicate_links;
    Alcotest.test_case "topology latency_between" `Quick test_topology_latency_between;
    Alcotest.test_case "wire ACKs and kinds" `Quick test_wire_ack_and_kinds;
    Alcotest.test_case "condense truncation symmetric" `Quick
      test_condense_truncation_symmetric ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_sim_heap_order;
        prop_tuple_codec_roundtrip;
        prop_tuple_wire_size;
        prop_message_codec_byte_identical;
        prop_signed_bytes_byte_identical;
        prop_message_roundtrip;
        prop_message_truncation_detected;
        prop_message_mutation;
        prop_message_size_identity ]
