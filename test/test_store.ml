(* Tests for the persisted provenance log (lib/store) and the offline
   query path over it: crash-safe recovery (torn tail, crash injected
   mid-compaction), run -> restart -> offline traceback byte-identity
   against live traceback at node and domain granularity, the 1/K
   flow-sampling bound, and the
   persisted Bloom-digest prefilter's false-positive rate. *)

open Engine

let rsa_bits = 384

(* fresh scratch directory per test, removed afterwards *)
let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psn-store-%d-%d" (Unix.getpid ()) (Hashtbl.hash f land 0xffffff))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then (
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path)
      else Sys.remove path
  in
  rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let mk_record i =
  let tuple = Tuple.make "p" [ Value.V_int i ] in
  let ident = Tuple.identity tuple in
  {
    Store.Prov_log.r_node = Printf.sprintf "n%d" (i mod 3);
    r_domain = Printf.sprintf "as%d" (i mod 2);
    r_live = false;
    r_at = float_of_int i;
    r_tuple = tuple;
    r_expr = Provenance.Prov_expr.base ident;
    r_received_from = [];
    r_derivs = [];
  }

let fill log n =
  for i = 0 to n - 1 do
    Store.Prov_log.append log (mk_record i)
  done;
  Store.Prov_log.flush log

(* --- persistence and recovery ------------------------------------- *)

let test_reopen_roundtrip () =
  with_temp_dir (fun dir ->
      let log = Store.Prov_log.open_log ~dir () in
      fill log 50;
      Store.Prov_log.append_flow log ~src:"n0" ~dst:"n1" ~time:1.0
        ~ident:"p(7)";
      Store.Prov_log.close log;
      let log = Store.Prov_log.open_log ~dir () in
      Alcotest.(check int) "records survive reopen" 50
        (Store.Prov_log.record_count log);
      Alcotest.(check int) "flows survive reopen" 1
        (Store.Prov_log.flow_count log);
      let rs = Store.Prov_log.lookup log ~ident:"p(7)" in
      Alcotest.(check int) "lookup finds the record" 1 (List.length rs);
      let r = List.hd rs in
      Alcotest.(check string) "expr survives reopen"
        (Provenance.Prov_expr.canonical_string (mk_record 7).r_expr)
        (Provenance.Prov_expr.canonical_string r.Store.Prov_log.r_expr);
      Store.Prov_log.close log)

let test_torn_tail_truncated () =
  with_temp_dir (fun dir ->
      let log = Store.Prov_log.open_log ~dir () in
      fill log 20;
      Store.Prov_log.close log;
      (* simulate a crash mid-write: garbage (an impossible frame)
         appended to the tail segment *)
      let segs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".log")
        |> List.sort compare
      in
      let tail = Filename.concat dir (List.nth segs (List.length segs - 1)) in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 tail in
      output_string oc "\xff\xff\xff\xffGARBAGE-NOT-A-FRAME";
      close_out oc;
      let log = Store.Prov_log.open_log ~dir () in
      Alcotest.(check int) "torn tail truncated, records intact" 20
        (Store.Prov_log.record_count log);
      Alcotest.(check int) "torn record still readable" 1
        (List.length (Store.Prov_log.lookup log ~ident:"p(19)"));
      (* the log must accept appends after truncation *)
      Store.Prov_log.append log (mk_record 20);
      Store.Prov_log.flush log;
      Store.Prov_log.close log;
      let log = Store.Prov_log.open_log ~dir () in
      Alcotest.(check int) "append after recovery persists" 21
        (Store.Prov_log.record_count log);
      Store.Prov_log.close log)

let crash_compaction_case hook () =
  with_temp_dir (fun dir ->
      (* tiny segments so 60 records span many sealed segments *)
      let log =
        Store.Prov_log.open_log ~segment_bytes:1024 ~compact_threshold:1000
          ~dir ()
      in
      fill log 60;
      let sealed = Store.Prov_log.segment_count log in
      Alcotest.(check bool) "enough segments to compact" true (sealed >= 3);
      (try
         ignore (Store.Prov_log.compact ~crash_after:hook log);
         Alcotest.fail "crash hook did not fire"
       with Store.Prov_log.Crash_injected _ -> ());
      (* recovery: whatever state the crash left (orphan tmp, old or
         new manifest), every record must still be readable *)
      let log = Store.Prov_log.open_log ~segment_bytes:1024 ~dir () in
      Alcotest.(check int) "no records lost by crashed compaction" 60
        (Store.Prov_log.record_count log);
      for i = 0 to 59 do
        let ident = Tuple.identity (Tuple.make "p" [ Value.V_int i ]) in
        Alcotest.(check int)
          (Printf.sprintf "record %d readable" i)
          1
          (List.length (Store.Prov_log.lookup log ~ident))
      done;
      (* no leftover tmp files after recovery *)
      Array.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "no orphan tmp %s" f)
            false
            (Filename.check_suffix f ".tmp"))
        (Sys.readdir dir);
      (* a clean compaction must now succeed *)
      if Store.Prov_log.segment_count log >= 3 then
        ignore (Store.Prov_log.compact log);
      Alcotest.(check int) "records survive the real compaction" 60
        (Store.Prov_log.record_count log);
      Store.Prov_log.close log)

(* --- run -> restart -> offline traceback --------------------------- *)

let mk_prov_runtime ~dir ?(sample = 1) ?(granularity = Core.Config.Node_level) ?(n = 8)
    ?(seed = 7) () =
  let topo = Net.Topology.random (Crypto.Rng.create ~seed) ~n () in
  let cfg = { Core.Config.sendlog_prov with rsa_bits } in
  let cfg = Core.Config.with_prov_log cfg (Some dir) in
  let cfg = Core.Config.with_prov_sample cfg sample in
  let cfg = Core.Config.with_granularity cfg granularity in
  let t =
    Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:(seed + 1)) ~cfg ~topo
      ~program:(Ndlog.Programs.best_path ()) ()
  in
  Core.Runtime.install_links t;
  ignore (Core.Runtime.run t);
  t

(* Does the tree stop at an AS boundary somewhere?  The cut leaf is
   located at, and asserted by, the origin domain ("as<i>"). *)
let rec ends_in_domain (tree : Provenance.Derivation.t) : bool =
  match tree with
  | Provenance.Derivation.Leaf { ann; _ } ->
    String.starts_with ~prefix:"as" ann.a_location && ann.a_says = Some ann.a_location
  | Provenance.Derivation.Rule { children; _ } -> List.exists ends_in_domain children
  | Provenance.Derivation.Union { alternatives; _ } -> List.exists ends_in_domain alternatives
  | Provenance.Derivation.Unreachable _ -> false

(* Live traceback against the offline walk over the same run's log,
   before and after the log is reopened.  At domain granularity the
   AS cut is the one step where the live stores and the log are
   consulted in a different order; it needs two ASes, which
   [Topology.random] creates from N = 20 on. *)
let offline_byte_identity ~granularity ~n ~seed () =
  with_temp_dir (fun dir ->
      let t = mk_prov_runtime ~dir ~granularity ~n ~seed () in
      Core.Runtime.sync_prov_log t;
      let live =
        List.map
          (fun (addr, tuple) -> (addr, Tuple.identity tuple, Core.Traceback.query t ~at:addr tuple))
          (Core.Runtime.query_all t "bestPath")
      in
      Alcotest.(check bool) "live tuples to compare" true
        (List.length live > 10);
      if granularity = Core.Config.As_level then
        Alcotest.(check bool) "some live tree stops at a domain" true
          (List.exists (fun (_, _, r) -> ends_in_domain r.Core.Traceback.tree) live);
      let check_against log =
        List.iter
          (fun (addr, ident, (want : Core.Traceback.result)) ->
            let r =
              Core.Traceback.offline_query log ~granularity ~at:addr ~ident ()
            in
            Alcotest.(check bool)
              (Printf.sprintf "offline %s at %s complete" ident addr)
              false r.Core.Traceback.partial;
            Alcotest.(check string)
              (Printf.sprintf "offline %s at %s" ident addr)
              (Provenance.Prov_expr.canonical_string want.expr)
              (Provenance.Prov_expr.canonical_string r.Core.Traceback.expr))
          live;
        (* the log as of time 0 has no record for the root itself *)
        let addr, ident, _ = List.hd live in
        let r = Core.Traceback.offline_query log ~granularity ~before:0.0 ~at:addr ~ident () in
        Alcotest.(check bool) "log before t=0 is partial" true r.Core.Traceback.partial;
        match r.Core.Traceback.tree with
        | Provenance.Derivation.Unreachable { location; _ } ->
          Alcotest.(check string) "unreachable root at the queried node" addr location
        | _ -> Alcotest.fail "log before t=0 should leave the root unreachable"
      in
      (match Core.Runtime.prov_log t with
      | None -> Alcotest.fail "runtime has no prov log"
      | Some log -> check_against log);
      (* restart: shut the runtime down, reopen the log from disk in a
         fresh handle, and the offline answers must not change *)
      Core.Runtime.shutdown t;
      let log = Store.Prov_log.open_log ~dir () in
      check_against log;
      Alcotest.(check bool) "restart sees flows" true
        (Store.Prov_log.flow_count log > 0);
      Alcotest.(check bool) "restart sees digests" true
        (Store.Prov_log.digest_count log > 0);
      Store.Prov_log.close log)

let test_offline_byte_identity () =
  offline_byte_identity ~granularity:Core.Config.Node_level ~n:8 ~seed:7 ();
  offline_byte_identity ~granularity:Core.Config.As_level ~n:20 ~seed:33 ()

let test_provenance_query_backends () =
  with_temp_dir (fun dir ->
      let t = mk_prov_runtime ~dir () in
      Core.Runtime.sync_prov_log t;
      Core.Runtime.shutdown t;
      let log = Store.Prov_log.open_log ~dir () in
      Fun.protect
        ~finally:(fun () -> Store.Prov_log.close log)
        (fun () ->
          (* Disk backend, relation target: a tree per (node, ident) *)
          let q =
            {
              Core.Provenance_query.q_target =
                Core.Provenance_query.Relation "bestPath";
              q_before = None;
              q_granularity = None;
              q_backend = Core.Provenance_query.Disk log;
            }
          in
          (match Core.Provenance_query.run q with
          | Core.Provenance_query.Trees fs ->
            Alcotest.(check bool) "disk relation query finds trees" true
              (List.length fs > 10)
          | Core.Provenance_query.Suspects _ ->
            Alcotest.fail "disk backend returned suspects");
          (* Sampled backend: moonwalk suspects over the recorded flows *)
          let ident =
            match Store.Prov_log.flows log with
            | [] -> Alcotest.fail "no flows recorded"
            | f :: _ -> f.Store.Prov_log.fl_ident
          in
          let q =
            {
              Core.Provenance_query.q_target =
                Core.Provenance_query.Tuple_id ident;
              q_before = None;
              q_granularity = None;
              q_backend = Core.Provenance_query.Sampled log;
            }
          in
          match
            Core.Provenance_query.run
              ~rng:(Crypto.Rng.create ~seed:11) ~walks:100 q
          with
          | Core.Provenance_query.Suspects { suspects; _ } ->
            Alcotest.(check bool) "moonwalk names suspects" true
              (suspects <> []);
            let hits = List.fold_left (fun a (_, h) -> a + h) 0 suspects in
            Alcotest.(check bool) "hit count bounded by walks" true
              (hits > 0 && hits <= 100)
          | Core.Provenance_query.Trees _ ->
            Alcotest.fail "sampled backend returned trees"))

(* --- 1/K sampling -------------------------------------------------- *)

let test_sampling_rate_bound () =
  let keys =
    List.init 4000 (fun i -> Printf.sprintf "path(n%d,n%d,%d)" (i mod 97) i i)
  in
  let count k =
    List.length (List.filter (fun key -> Store.Prov_log.sampled ~k key) keys)
  in
  (* K = 1 keeps everything *)
  Alcotest.(check int) "K=1 keeps all" 4000 (count 1);
  (* deterministic: same key, same verdict *)
  List.iter
    (fun key ->
      Alcotest.(check bool) "sampling is deterministic" true
        (Store.Prov_log.sampled ~k:8 key = Store.Prov_log.sampled ~k:8 key))
    keys;
  (* hash mod 64 = 0 implies mod 8 = 0: rates are nested *)
  let c8 = count 8 and c64 = count 64 in
  Alcotest.(check bool) "K=64 subset of K=8" true (c64 <= c8);
  List.iter
    (fun key ->
      if Store.Prov_log.sampled ~k:64 key then
        Alcotest.(check bool) "K=64 sample also in K=8 sample" true
          (Store.Prov_log.sampled ~k:8 key))
    keys;
  (* the rate tracks 1/K within a generous statistical band *)
  let in_band k c =
    let expected = 4000.0 /. float_of_int k in
    let lo = expected *. 0.4 and hi = expected *. 2.5 in
    let c = float_of_int c in
    c >= lo && c <= hi
  in
  Alcotest.(check bool) "K=8 rate near 1/8" true (in_band 8 c8);
  Alcotest.(check bool) "K=64 rate near 1/64" true (in_band 64 c64)

let test_sampled_runtime_flow_counts () =
  (* higher K must record no more flows than lower K on the same run *)
  let flows_at k =
    with_temp_dir (fun dir ->
        let t = mk_prov_runtime ~dir ~sample:k () in
        Core.Runtime.sync_prov_log t;
        let n =
          match Core.Runtime.prov_log t with
          | Some log -> Store.Prov_log.flow_count log
          | None -> Alcotest.fail "runtime has no prov log"
        in
        Core.Runtime.shutdown t;
        n)
  in
  let f1 = flows_at 1 and f8 = flows_at 8 and f64 = flows_at 64 in
  Alcotest.(check bool) "K=1 records flows" true (f1 > 0);
  Alcotest.(check bool) "flow volume shrinks with K" true
    (f64 <= f8 && f8 <= f1);
  Alcotest.(check bool) "K=8 thins the flow log" true (f8 < f1)

(* The write-through only observes the run: SeNDLogProv Best-Path with
   and without a provenance log, on the same seeds, reaches the same
   fixpoint on every Best-Path relation and the same bestPathCost
   provenance. *)
let test_write_through_identity () =
  let run prov_log =
    let topo = Net.Topology.random (Crypto.Rng.create ~seed:7) ~n:8 () in
    let cfg = Core.Config.with_prov_log { Core.Config.sendlog_prov with rsa_bits } prov_log in
    let t =
      Core.Runtime.create ~rng:(Crypto.Rng.create ~seed:8) ~cfg ~topo
        ~program:(Ndlog.Programs.best_path ()) ()
    in
    Core.Runtime.install_links t;
    ignore (Core.Runtime.run t);
    Core.Runtime.sync_prov_log t;
    let records = Option.map Store.Prov_log.record_count (Core.Runtime.prov_log t) in
    let fixpoint =
      List.map
        (Core.Bestpath_workload.fixpoint_snapshot t)
        [ "link"; "path"; "bestPathCost"; "bestPath" ]
    in
    let prov = Core.Bestpath_workload.prov_snapshot t "bestPathCost" in
    Core.Runtime.shutdown t;
    (fixpoint, prov, records)
  in
  with_temp_dir (fun dir ->
      let fixpoint, prov, _ = run None in
      let logged_fixpoint, logged_prov, records = run (Some dir) in
      Alcotest.(check bool) "the log was written" true
        (match records with Some r -> r > 0 | None -> false);
      Alcotest.(check bool) "fixpoint to compare" true
        (List.for_all (fun rel -> rel <> []) fixpoint);
      Alcotest.(check (list (list (pair string string)))) "same fixpoint" fixpoint
        logged_fixpoint;
      Alcotest.(check (list (pair (pair string string) string)))
        "same bestPathCost provenance" prov logged_prov)

(* --- persisted Bloom digests --------------------------------------- *)

let test_digest_fp_rate () =
  with_temp_dir (fun dir ->
      (* same fixture parameters as test_bloom's FP-rate bound *)
      let log =
        Store.Prov_log.open_log ~digest_expected:1000 ~digest_fp_rate:0.01
          ~dir ()
      in
      for i = 0 to 999 do
        Store.Prov_log.record_digest log ~node:"n0" ~time:1.0
          (Printf.sprintf "member-%d" i)
      done;
      Store.Prov_log.flush log;
      Store.Prov_log.close log;
      (* probe a fresh handle so the digests exercised are the ones
         recovered from disk *)
      let log = Store.Prov_log.open_log ~dir () in
      for i = 0 to 999 do
        Alcotest.(check bool)
          (Printf.sprintf "member %d found after reopen" i)
          true
          (Store.Prov_log.digest_mem log ~node:"n0" ~time:1.0
             (Printf.sprintf "member-%d" i))
      done;
      let probes = 20000 in
      let fps = ref 0 in
      for i = 0 to probes - 1 do
        if
          Store.Prov_log.digest_mem log ~node:"n0" ~time:1.0
            (Printf.sprintf "absent-%d" i)
        then incr fps
      done;
      let rate = float_of_int !fps /. float_of_int probes in
      Alcotest.(check bool)
        (Printf.sprintf "persisted digest FP rate %.4f < 0.03" rate)
        true (rate < 0.03);
      Store.Prov_log.close log)

let suite =
  [
    Alcotest.test_case "reopen roundtrip" `Quick test_reopen_roundtrip;
    Alcotest.test_case "torn tail truncated on recovery" `Quick
      test_torn_tail_truncated;
    Alcotest.test_case "crash after compaction tmp write" `Quick
      (crash_compaction_case `Tmp_written);
    Alcotest.test_case "crash after compaction manifest swap" `Quick
      (crash_compaction_case `Manifest_swapped);
    Alcotest.test_case "offline traceback byte-identity across restart"
      `Slow test_offline_byte_identity;
    Alcotest.test_case "provenance query disk and sampled backends" `Slow
      test_provenance_query_backends;
    Alcotest.test_case "1/K sampling rate bound" `Quick
      test_sampling_rate_bound;
    Alcotest.test_case "sampled runtime flow counts" `Slow
      test_sampled_runtime_flow_counts;
    Alcotest.test_case "prov-log write-through leaves the fixpoint" `Quick
      test_write_through_identity;
    Alcotest.test_case "persisted bloom digest FP rate" `Quick
      test_digest_fp_rate;
  ]
