(* Tests for the observability layer: metrics registry semantics
   (counters, gauges, log-scale histograms, labels, in-place reset),
   span nesting against a mocked clock, event ring-buffer overflow,
   and the JSON snapshot round-trip. *)

(* --- metrics ----------------------------------------------------------- *)

let test_counter_semantics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "eval.rounds" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.value c);
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:4 c;
  Alcotest.(check int) "inc accumulates" 5 (Obs.Metrics.value c);
  (* same (name, labels) yields the same series *)
  let c' = Obs.Metrics.counter reg "eval.rounds" in
  Obs.Metrics.inc c';
  Alcotest.(check int) "same name shares the cell" 6 (Obs.Metrics.value c);
  (* different labels are independent series *)
  let ca = Obs.Metrics.counter reg ~labels:[ ("rule", "p1") ] "eval.rule_derivations" in
  let cb = Obs.Metrics.counter reg ~labels:[ ("rule", "p2") ] "eval.rule_derivations" in
  Obs.Metrics.inc ~by:3 ca;
  Obs.Metrics.inc ~by:7 cb;
  Alcotest.(check int) "label p1" 3 (Obs.Metrics.value ca);
  Alcotest.(check int) "label p2" 7 (Obs.Metrics.value cb);
  (* label order must not matter for series identity *)
  let l1 = Obs.Metrics.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "multi" in
  let l2 = Obs.Metrics.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "multi" in
  Obs.Metrics.inc l1;
  Alcotest.(check int) "sorted labels share the cell" 1 (Obs.Metrics.value l2)

let test_gauge_semantics () =
  let reg = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge reg "sim.queue_depth_max" in
  Obs.Metrics.set g 4.0;
  Obs.Metrics.set_max g 2.0;
  Alcotest.(check (float 0.0)) "set_max keeps high-water" 4.0 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set_max g 9.0;
  Alcotest.(check (float 0.0)) "set_max raises" 9.0 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set g 1.0;
  Alcotest.(check (float 0.0)) "set overrides" 1.0 (Obs.Metrics.gauge_value g)

let test_kind_mismatch () =
  let reg = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter reg "m");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics.gauge: m is not a gauge") (fun () ->
      ignore (Obs.Metrics.gauge reg "m"))

let test_histogram_semantics () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "crypto.sign_seconds" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 3.0; 0.75; 0.0 ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 4.25 (Obs.Metrics.hist_sum h);
  (* buckets: 0.5 and 0.75 share le=1 (2^0); 3.0 lands in le=4 (2^2);
     0.0 lands in the nonpositive le=0 bucket.  Per-bucket counts in
     the JSON snapshot must sum back to the total count. *)
  let j = Obs.Metrics.to_json reg in
  let metrics =
    match Obs.Json.member "metrics" j with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "snapshot has no metrics list"
  in
  let hist = List.hd metrics in
  let buckets =
    match Obs.Json.member "buckets" hist with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "histogram has no buckets"
  in
  let bucket_of le =
    List.find_opt
      (fun b ->
        match Obs.Json.member "le" b with
        | Some v -> Obs.Json.to_float_opt v = Some le
        | None -> false)
      buckets
  in
  let count_of le =
    match bucket_of le with
    | Some b -> Option.value ~default:(-1) (Option.bind (Obs.Json.member "count" b) Obs.Json.to_int_opt)
    | None -> 0
  in
  Alcotest.(check int) "le=1 bucket" 2 (count_of 1.0);
  Alcotest.(check int) "le=4 bucket" 1 (count_of 4.0);
  Alcotest.(check int) "le=0 (nonpositive) bucket" 1 (count_of 0.0);
  let total =
    List.fold_left
      (fun acc b ->
        acc + Option.value ~default:0 (Option.bind (Obs.Json.member "count" b) Obs.Json.to_int_opt))
      0 buckets
  in
  Alcotest.(check int) "bucket counts sum to count" 4 total

let test_reset_in_place () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "c" in
  let g = Obs.Metrics.gauge reg "g" in
  let h = Obs.Metrics.histogram reg "h" in
  Obs.Metrics.inc ~by:9 c;
  Obs.Metrics.set g 5.0;
  Obs.Metrics.observe h 1.5;
  Obs.Metrics.reset reg;
  (* cached handles must stay attached — this is what lets Crypto.Rsa
     and Net.Stats keep their lazily created series across runs *)
  Alcotest.(check int) "counter zeroed" 0 (Obs.Metrics.value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "histogram zeroed" 0 (Obs.Metrics.hist_count h);
  Obs.Metrics.inc c;
  Alcotest.(check int) "handle still live after reset" 1
    (Obs.Metrics.value (Obs.Metrics.counter reg "c"))

let test_json_round_trip () =
  let v =
    Obs.Json.Obj
      [ ("name", Obs.Json.Str "wire.bytes_total");
        ("value", Obs.Json.Int 44580);
        ("ratio", Obs.Json.Float 0.125);
        ("tags", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("esc", Obs.Json.Str "line\n\"quoted\"\ttab") ]
  in
  let v' = Obs.Json.parse (Obs.Json.to_string v) in
  Alcotest.(check bool) "round-trips structurally" true (v = v');
  (* parser accepts whitespace and nested structures *)
  let p = Obs.Json.parse {| { "a" : [ 1, -2.5e1, "x" ], "b": {"c": false} } |} in
  (match Option.bind (Obs.Json.member "a" p) (fun l ->
       match l with Obs.Json.List (x :: _) -> Obs.Json.to_int_opt x | _ -> None)
   with
  | Some 1 -> ()
  | _ -> Alcotest.fail "nested member access");
  Alcotest.check_raises "trailing garbage rejected"
    (Obs.Json.Parse_error "trailing input at 5") (fun () ->
      ignore (Obs.Json.parse "true x"))

let test_metrics_json_snapshot () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.inc ~by:344 (Obs.Metrics.counter reg "eval.rounds");
  let j = Obs.Json.parse (Obs.Metrics.to_json_string reg) in
  let metrics =
    match Obs.Json.member "metrics" j with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "no metrics list"
  in
  let m = List.hd metrics in
  Alcotest.(check (option string)) "name" (Some "eval.rounds")
    (Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt);
  Alcotest.(check (option int)) "value survives print/parse" (Some 344)
    (Option.bind (Obs.Json.member "value" m) Obs.Json.to_int_opt)

(* --- trace spans ------------------------------------------------------- *)

let test_span_nesting_mock_clock () =
  let now = ref 100.0 in
  let tr = Obs.Trace.create ~clock:(fun () -> !now) () in
  let r =
    Obs.Trace.with_span tr ~attrs:[ ("config", "NDLog") ] "run" (fun () ->
        now := !now +. 1.0;
        Obs.Trace.with_span tr "round" (fun () ->
            now := !now +. 2.0;
            ignore (Obs.Trace.record tr "handle" ~start:!now ~dur:0.5 ~wall_dur:0.001);
            17))
  in
  Alcotest.(check int) "body result returned" 17 r;
  match Obs.Trace.finished_spans tr with
  | [ handle; round; run ] ->
    Alcotest.(check string) "innermost name" "handle" handle.Obs.Trace.sp_name;
    Alcotest.(check string) "middle name" "round" round.Obs.Trace.sp_name;
    Alcotest.(check string) "outer name" "run" run.Obs.Trace.sp_name;
    Alcotest.(check (option int)) "round parents under run"
      (Some run.Obs.Trace.sp_id) round.Obs.Trace.sp_parent;
    Alcotest.(check (option int)) "recorded span parents under round"
      (Some round.Obs.Trace.sp_id) handle.Obs.Trace.sp_parent;
    Alcotest.(check (option int)) "run is a root" None run.Obs.Trace.sp_parent;
    Alcotest.(check (float 1e-9)) "run start on mock clock" 100.0 run.Obs.Trace.sp_start;
    Alcotest.(check (float 1e-9)) "run duration" 3.0 run.Obs.Trace.sp_dur;
    Alcotest.(check (float 1e-9)) "round duration" 2.0 round.Obs.Trace.sp_dur;
    Alcotest.(check (float 1e-9)) "recorded duration" 0.5 handle.Obs.Trace.sp_dur;
    Alcotest.(check (float 1e-9)) "total_duration sums by name" 0.5
      (Obs.Trace.total_duration tr "handle")
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_limit_and_json_lines () =
  let now = ref 0.0 in
  let tr = Obs.Trace.create ~limit:2 ~clock:(fun () -> !now) () in
  for _ = 1 to 4 do
    Obs.Trace.with_span tr "s" (fun () -> now := !now +. 1.0)
  done;
  Alcotest.(check int) "bounded" 2 (List.length (Obs.Trace.finished_spans tr));
  Alcotest.(check int) "dropped counted" 2 (Obs.Trace.dropped tr);
  Obs.Trace.reset tr;
  Alcotest.(check int) "reset clears" 0 (List.length (Obs.Trace.finished_spans tr))

(* --- event ring buffer ------------------------------------------------- *)

let test_ring_overflow () =
  let log = Obs.Events.create ~capacity:4 () in
  for i = 0 to 5 do
    Obs.Events.emit log ~at:(float_of_int i)
      (Obs.Events.E_custom { kind = "link_down"; attrs = [ ("src", string_of_int i) ] })
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Obs.Events.length log);
  Alcotest.(check int) "two overwrites" 2 (Obs.Events.dropped_count log);
  Alcotest.(check int) "seq monotone across overwrites" 6 (Obs.Events.total_emitted log);
  let seqs = List.map (fun e -> e.Obs.Events.en_seq) (Obs.Events.to_list log) in
  Alcotest.(check (list int)) "oldest entries evicted first" [ 2; 3; 4; 5 ] seqs;
  Obs.Events.reset log;
  Alcotest.(check int) "reset empties" 0 (Obs.Events.length log)

let test_event_json_lines () =
  let log = Obs.Events.create ~capacity:16 () in
  Obs.Events.emit log ~at:1.5 (Obs.Events.E_forged_dropped { node = "n1"; src = "n4" });
  Obs.Events.emit log ~at:2.0
    (Obs.Events.E_custom { kind = "retracted"; attrs = [ ("node", "n2"); ("count", "4") ] });
  let lines = String.split_on_char '\n' (String.trim (Obs.Events.to_json_lines log)) in
  match List.map Obs.Json.parse lines with
  | [ a; b ] ->
    Alcotest.(check (option string)) "kind" (Some "forged_dropped")
      (Option.bind (Obs.Json.member "kind" a) Obs.Json.to_string_opt);
    Alcotest.(check (option (float 0.0))) "virtual timestamp" (Some 1.5)
      (Option.bind (Obs.Json.member "at" a) Obs.Json.to_float_opt);
    Alcotest.(check (option string)) "payload field" (Some "n4")
      (Option.bind (Obs.Json.member "src" a) Obs.Json.to_string_opt);
    Alcotest.(check (option string)) "custom kind" (Some "retracted")
      (Option.bind (Obs.Json.member "kind" b) Obs.Json.to_string_opt);
    Alcotest.(check (option string)) "custom attribute" (Some "4")
      (Option.bind (Obs.Json.member "count" b) Obs.Json.to_string_opt)
  | l -> Alcotest.failf "expected 2 event lines, got %d" (List.length l)

(* --- histogram bucket edges -------------------------------------------- *)

let test_bucket_boundaries () =
  (* Bucket [b] covers (2^(b-1), 2^b] by upper bound 2^b; exact powers
     of two sit at the top of their bucket (frexp 1.0 = (0.5, 1)). *)
  Alcotest.(check int) "1.0 -> bucket 1" 1 (Obs.Metrics.bucket_of 1.0);
  Alcotest.(check int) "2.0 -> bucket 2" 2 (Obs.Metrics.bucket_of 2.0);
  Alcotest.(check int) "0.5 -> bucket 0" 0 (Obs.Metrics.bucket_of 0.5);
  Alcotest.(check int) "0.75 -> bucket 0" 0 (Obs.Metrics.bucket_of 0.75);
  Alcotest.(check int) "just above 1.0 -> bucket 1" 1 (Obs.Metrics.bucket_of 1.0000001);
  Alcotest.(check bool) "zero -> nonpositive bucket" true
    (Obs.Metrics.bucket_of 0.0 = Obs.Metrics.nonpositive_bucket);
  Alcotest.(check bool) "negative -> nonpositive bucket" true
    (Obs.Metrics.bucket_of (-3.0) = Obs.Metrics.nonpositive_bucket);
  Alcotest.(check (float 0.0)) "ub of bucket 1" 2.0 (Obs.Metrics.bucket_upper_bound 1);
  Alcotest.(check (float 0.0)) "ub of nonpositive" 0.0
    (Obs.Metrics.bucket_upper_bound Obs.Metrics.nonpositive_bucket)

(* --- percentile estimation --------------------------------------------- *)

let test_percentile_estimation () =
  (* Synthetic buckets: 50 observations in (0.5,1], 50 in (1,2]. *)
  let buckets = [ (1.0, 50); (2.0, 50) ] in
  let p = Obs.Profile.percentile_of_buckets ~buckets ~min_v:0.6 ~max_v:2.0 in
  Alcotest.(check (float 1e-9)) "p50 at first bucket top" 1.0 (p 0.5);
  Alcotest.(check (float 1e-9)) "p90 interpolated" 1.8 (p 0.9);
  Alcotest.(check bool) "p99 clamped to max" true (p 0.99 <= 2.0);
  (* Live histogram: constant observations clamp to min=max. *)
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "const" in
  for _ = 1 to 10 do Obs.Metrics.observe h 0.75 done;
  let s = Obs.Profile.summary h in
  Alcotest.(check (float 1e-9)) "constant p50" 0.75 s.Obs.Profile.s_p50;
  Alcotest.(check (float 1e-9)) "constant p99" 0.75 s.Obs.Profile.s_p99;
  (* Spread: quantiles are monotone and inside [min, max]. *)
  let h2 = Obs.Metrics.histogram reg "spread" in
  for i = 1 to 100 do Obs.Metrics.observe h2 (float_of_int i /. 10.0) done;
  let s2 = Obs.Profile.summary h2 in
  Alcotest.(check bool) "monotone quantiles" true
    (s2.Obs.Profile.s_p50 <= s2.Obs.Profile.s_p90
    && s2.Obs.Profile.s_p90 <= s2.Obs.Profile.s_p99
    && s2.Obs.Profile.s_p99 <= s2.Obs.Profile.s_max);
  Alcotest.(check bool) "p50 in range" true
    (s2.Obs.Profile.s_p50 >= s2.Obs.Profile.s_min
    && s2.Obs.Profile.s_p50 <= s2.Obs.Profile.s_max);
  Alcotest.(check int) "empty histogram summary" 0
    (Obs.Profile.summary (Obs.Metrics.histogram reg "empty")).Obs.Profile.s_count

(* --- tracer under parallel domains ------------------------------------- *)

let test_trace_multi_domain () =
  let tr = Obs.Trace.create () in
  let spawn () =
    Domain.spawn (fun () ->
        for i = 1 to 500 do
          Obs.Trace.with_span tr "outer" (fun () ->
              Obs.Trace.with_span tr "inner" (fun () -> ignore i))
        done)
  in
  let ds = [ spawn (); spawn (); spawn (); spawn () ] in
  List.iter Domain.join ds;
  let spans = Obs.Trace.finished_spans tr in
  Alcotest.(check int) "all spans recorded" 4000 (List.length spans);
  let ids = List.map (fun s -> s.Obs.Trace.sp_id) spans in
  Alcotest.(check int) "span ids unique" 4000
    (List.length (List.sort_uniq compare ids));
  (* Per-domain stacks: every "inner" parents under an "outer", never
     under another domain's "inner". *)
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.Trace.sp_id s) spans;
  List.iter
    (fun s ->
      if s.Obs.Trace.sp_name = "inner" then
        match s.Obs.Trace.sp_parent with
        | Some p ->
          let parent = Hashtbl.find by_id p in
          Alcotest.(check string) "inner parents under outer" "outer"
            parent.Obs.Trace.sp_name
        | None -> Alcotest.fail "inner span lost its parent")
    spans

(* --- Chrome trace-event export ----------------------------------------- *)

let test_chrome_export () =
  let now = ref 0.0 in
  let tr = Obs.Trace.create ~clock:(fun () -> !now) () in
  let p =
    Obs.Trace.record tr "handle" ~attrs:[ ("node", "n1") ] ~start:0.0 ~dur:0.5
      ~wall_dur:0.001
  in
  (* Child on a different node, explicitly parented: must yield a flow
     arrow between the two tracks. *)
  ignore
    (Obs.Trace.record tr "handle" ~attrs:[ ("node", "n2") ] ~parent:p ~start:0.6
       ~dur:0.2 ~wall_dur:0.001);
  let j = Obs.Json.parse (Obs.Export.chrome_trace tr) in
  let events =
    match Obs.Json.member "traceEvents" j with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let phase e = Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt in
  let count ph = List.length (List.filter (fun e -> phase e = Some ph) events) in
  Alcotest.(check int) "two complete spans" 2 (count "X");
  Alcotest.(check int) "one flow start" 1 (count "s");
  Alcotest.(check int) "one flow finish" 1 (count "f");
  (* run lane + two node lanes *)
  Alcotest.(check int) "thread names" 3 (count "M");
  (match Option.bind (Obs.Json.member "otherData" j) (Obs.Json.member "trace_id") with
  | Some (Obs.Json.Int id) ->
    Alcotest.(check int) "trace id round-trips" (Obs.Trace.id tr) id
  | _ -> Alcotest.fail "no trace_id in otherData");
  (* Same-track nesting draws no arrow. *)
  let tr2 = Obs.Trace.create ~clock:(fun () -> !now) () in
  let q =
    Obs.Trace.record tr2 "a" ~attrs:[ ("node", "n1") ] ~start:0.0 ~dur:0.1
      ~wall_dur:0.0
  in
  ignore
    (Obs.Trace.record tr2 "b" ~attrs:[ ("node", "n1") ] ~parent:q ~start:0.1
       ~dur:0.1 ~wall_dur:0.0);
  let j2 = Obs.Json.parse (Obs.Export.chrome_trace tr2) in
  (match Obs.Json.member "traceEvents" j2 with
  | Some (Obs.Json.List l) ->
    Alcotest.(check int) "no flow for same-track parent" 0
      (List.length
         (List.filter
            (fun e ->
              let ph = Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt in
              ph = Some "s" || ph = Some "f")
            l))
  | _ -> Alcotest.fail "no traceEvents")

let suite : unit Alcotest.test_case list =
  [ Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
    Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "reset is in-place" `Quick test_reset_in_place;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "metrics json snapshot" `Quick test_metrics_json_snapshot;
    Alcotest.test_case "span nesting (mock clock)" `Quick test_span_nesting_mock_clock;
    Alcotest.test_case "span limit + json lines" `Quick test_span_limit_and_json_lines;
    Alcotest.test_case "event ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "event json lines" `Quick test_event_json_lines;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "percentile estimation" `Quick test_percentile_estimation;
    Alcotest.test_case "tracer under parallel domains" `Quick test_trace_multi_domain;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_export ]
