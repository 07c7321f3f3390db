(* psn - command-line front end for the provenance-aware secure
   networking library.

   Subcommands:
     parse   check and pretty-print an NDlog/SeNDlog program
     run     execute a program over a simulated topology
             (--metrics / --trace-out / --events dump run telemetry;
             --prov-log persists offline provenance for psn trace)
     trace   offline traceback over a persisted provenance log
     stats   pretty-print a metrics snapshot written by run --metrics
     sweep   reproduce the Figure 3 / Figure 4 series
     demo    the paper's Figure 1 / Figure 2 walkthrough *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write [content] to [path], with "-" meaning stdout. *)
let write_output (path : string) (content : string) : unit =
  if path = "-" then print_string content
  else
    match open_out path with
    | oc ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
    | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 1

(* --- psn parse ------------------------------------------------------- *)

let parse_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"NDlog source file")
  in
  let localize =
    Arg.(value & flag & info [ "localize" ] ~doc:"Print the localized rewrite")
  in
  let run file localize =
    match Ndlog.Parser.parse_program (read_file file) with
    | exception Ndlog.Parser.Parse_error (msg, line) ->
      Printf.eprintf "parse error (line %d): %s\n" line msg;
      exit 1
    | exception Ndlog.Lexer.Lex_error (msg, line) ->
      Printf.eprintf "lex error (line %d): %s\n" line msg;
      exit 1
    | program -> (
      let program = if localize then Ndlog.Localize.localize_program program else program in
      print_string (Ndlog.Pretty.program_to_string program);
      match Ndlog.Analysis.check_program program with
      | [] -> ()
      | errs ->
        Printf.eprintf "%s\n" (Ndlog.Analysis.errors_to_string errs);
        exit 1)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Check and pretty-print a program")
    Term.(const run $ file $ localize)

(* --- psn run --------------------------------------------------------- *)

let config_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "ndlog" -> Ok Core.Config.ndlog
    | "sendlog" -> Ok Core.Config.sendlog
    | "sendlogprov" | "prov" -> Ok Core.Config.sendlog_prov
    | _ -> Error (`Msg "expected ndlog | sendlog | sendlogprov")
  in
  let print fmt c = Format.pp_print_string fmt (Core.Config.name c) in
  Arg.conv (parse, print)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"NDlog source file")
  in
  let nodes =
    Arg.(value & opt int 10 & info [ "n"; "nodes" ] ~doc:"Number of nodes in the random topology")
  in
  let seed = Arg.(value & opt int 2008 & info [ "seed" ] ~doc:"Random seed") in
  let cfg =
    Arg.(value & opt config_conv Core.Config.ndlog
         & info [ "config" ] ~doc:"ndlog | sendlog | sendlogprov")
  in
  let rsa_bits = Arg.(value & opt int 384 & info [ "rsa-bits" ] ~doc:"RSA modulus size") in
  let loss =
    Arg.(value & opt float 0.0
         & info [ "loss" ] ~docv:"P" ~doc:"Per-message drop probability on every link")
  in
  let dup =
    Arg.(value & opt float 0.0
         & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability")
  in
  let reorder =
    Arg.(value & opt float 0.0
         & info [ "reorder" ] ~docv:"P" ~doc:"Per-message reorder (extra-delay) probability")
  in
  let jitter =
    Arg.(value & opt float 0.05
         & info [ "jitter" ] ~docv:"SECONDS" ~doc:"Maximum extra delay for reordered messages")
  in
  let crashes =
    Arg.(value & opt_all string []
         & info [ "crash" ] ~docv:"NODE@AT[+DUR]"
             ~doc:"Fail-stop NODE at virtual time AT, restarting after DUR (repeatable)")
  in
  let fault_seed =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ]
             ~doc:"Seed for fault verdicts (defaults to --seed); same seed, same faults")
  in
  let reliable =
    Arg.(value & flag
         & info [ "reliable" ] ~doc:"Enable the seq/ACK/retransmit reliable-delivery layer")
  in
  let retries =
    Arg.(value & opt int 8 & info [ "retries" ] ~doc:"Retransmission attempts before giving up")
  in
  let ack_timeout =
    Arg.(value & opt float 0.25
         & info [ "ack-timeout" ] ~docv:"SECONDS"
             ~doc:"Base retransmission timeout (doubles per attempt)")
  in
  let max_backoff =
    Arg.(value & opt float 2.0
         & info [ "max-backoff" ] ~docv:"SECONDS"
             ~doc:"Cap on the exponential retransmission backoff")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:"Event-simulator shards, the engine's only parallelism: \
                   partition nodes by AS across K per-shard queues drained on \
                   worker domains and synchronized conservatively (1 = single \
                   queue on the calling domain, 0 = one shard per AS domain); \
                   results are byte-identical across K")
  in
  let prov_granularity =
    Arg.(value & opt string "node"
         & info [ "prov-granularity" ] ~docv:"LEVEL"
             ~doc:"Provenance granularity: node (full detail) or domain \
                   (cross-AS shipments summarize to the origin AS; traceback \
                   answers at domain granularity outside the querying node's \
                   own AS)")
  in
  let flap_rate =
    Arg.(value & opt float 0.0
         & info [ "flap-rate" ] ~docv:"RATE"
             ~doc:"Poisson link-flap rate per link per virtual second; each flap \
                   retracts or reinstalls a link fact and triggers incremental \
                   (DRed) maintenance (requires --churn)")
  in
  let churn =
    Arg.(value & opt float 0.0
         & info [ "churn" ] ~docv:"SECONDS"
             ~doc:"Churn window: after the initial fixpoint, play --flap-rate link \
                   flaps for this many virtual seconds, then re-converge")
  in
  let advance =
    Arg.(value & opt float 0.0
         & info [ "advance" ] ~docv:"SECONDS"
             ~doc:"After the run, advance virtual time by exactly this much and \
                   evict expired soft state (dependents are incrementally \
                   retracted), then run to quiescence again")
  in
  let with_links =
    Arg.(value & flag & info [ "links" ] ~doc:"Insert the topology's link(src,dst,cost) facts")
  in
  let show =
    Arg.(value & opt_all string [] & info [ "show" ] ~docv:"REL" ~doc:"Print a relation after the run")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write a metrics snapshot (JSON) to FILE after the run; \"-\" for stdout")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the run's causal trace as Chrome trace-event JSON \
                   (loadable in Perfetto / chrome://tracing) to FILE")
  in
  let events_out =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE"
             ~doc:"Write the structured event log (JSON lines) to FILE")
  in
  let prov_log =
    Arg.(value & opt (some string) None
         & info [ "prov-log" ] ~docv:"DIR"
             ~doc:"Persist offline provenance to an on-disk log in DIR: retired \
                   tuples write through, live tuples are checkpointed at the end \
                   of the run, and released data messages record 1/K-sampled \
                   flows plus per-epoch Bloom digests; query later with psn trace")
  in
  let prov_sample =
    Arg.(value & opt int 1
         & info [ "prov-sample" ] ~docv:"K"
             ~doc:"Sample 1-in-K: capture provenance for 1 in K tuple \
                   identities and record 1 in K flows into the provenance log \
                   (deterministic per key; 1 = capture and record everything)")
  in
  let run file nodes seed cfg rsa_bits loss dup reorder jitter
      crashes fault_seed reliable retries ack_timeout max_backoff shards
      prov_granularity flap_rate churn advance with_links show metrics_out
      trace_out events_out prov_log prov_sample =
    let program = Ndlog.Parser.parse_program_exn (read_file file) in
    let rng = Crypto.Rng.create ~seed in
    let topo = Net.Topology.random rng ~n:nodes () in
    (* Config knobs flow through the Config builders, which validate
       them.  The churn phase's flap rate and horizon go straight to
       [Runtime.schedule_flaps], so they are checked here. *)
    if flap_rate < 0.0 then begin
      Printf.eprintf "--flap-rate: negative rate\n";
      exit 1
    end;
    if churn < 0.0 then begin
      Printf.eprintf "--churn: negative horizon\n";
      exit 1
    end;
    let cfg =
      try
        let c = Core.Config.with_rsa_bits cfg rsa_bits in
        let c = Core.Config.with_loss c loss in
        let c = Core.Config.with_dup c dup in
        let c = Core.Config.with_reorder c reorder in
        let c = Core.Config.with_jitter c jitter in
        let c =
          Core.Config.with_fault_seed c (Option.value fault_seed ~default:seed)
        in
        let c =
          List.fold_left
            (fun c spec ->
              match Net.Fault.crash_of_string spec with
              | Ok crash -> Core.Config.with_crash c crash
              | Error e ->
                Printf.eprintf "--crash %s: %s\n" spec e;
                exit 1)
            c crashes
        in
        let c = Core.Config.with_reliable c reliable in
        let c = Core.Config.with_retry c ~limit:retries ~ack_timeout () in
        let c = Core.Config.with_max_backoff c max_backoff in
        let c = Core.Config.with_shards c shards in
        let c =
          match Core.Config.granularity_of_string prov_granularity with
          | Ok g -> Core.Config.with_granularity c g
          | Error e ->
            Printf.eprintf "--prov-granularity: %s\n" e;
            exit 1
        in
        let c = Core.Config.with_prov_log c prov_log in
        Core.Config.with_prov_sample c prov_sample
      with Invalid_argument e ->
        Printf.eprintf "%s\n" e;
        exit 1
    in
    (* The snapshot should cover this run only, not process history
       (key generation during setup still shows in crypto.keygen). *)
    Obs.Metrics.reset Obs.Metrics.default;
    let t = Core.Runtime.create ~rng ~cfg ~topo ~program () in
    let tracer =
      if trace_out <> None then Some (Core.Runtime.enable_tracing t) else None
    in
    if with_links then Core.Runtime.install_links t;
    Core.Runtime.install_program_facts t;
    let r = Core.Runtime.run t in
    (* Keep stdout clean for the snapshot when any telemetry target is
       "-", so `psn run --metrics - | psn stats -` pipes cleanly. *)
    let human =
      if List.mem (Some "-") [ metrics_out; trace_out; events_out ] then
        stderr
      else stdout
    in
    Printf.fprintf human "completion: %.3fs (virtual), %.3fs (cpu), %d events\n"
      r.sim_seconds r.wall_seconds r.events;
    if not (Net.Fault.is_ideal cfg.Core.Config.fault) then
      Printf.fprintf human "faults: %s, delivery=%s\n"
        (Net.Fault.describe cfg.Core.Config.fault)
        (if cfg.Core.Config.reliable then
           Printf.sprintf "reliable (retries=%d, ack-timeout=%.3fs)"
             cfg.Core.Config.retry_limit cfg.Core.Config.ack_timeout
         else "best-effort");
    if churn > 0.0 && flap_rate > 0.0 then begin
      let flaps = Core.Runtime.schedule_flaps t ~rate:flap_rate ~horizon:churn () in
      let rc = Core.Runtime.run t in
      Printf.fprintf human
        "churn: %d link flaps over %.1fs (rate %.2f/s per link, fault seed %d); \
         re-converged at %.3fs (virtual), %d tuples retracted\n"
        (List.length flaps) churn flap_rate cfg.Core.Config.fault.Net.Fault.seed
        rc.sim_seconds (Core.Runtime.tuples_retracted t)
    end;
    if advance > 0.0 then begin
      let before = Core.Runtime.tuples_retracted t in
      Core.Runtime.advance t ~seconds:advance;
      ignore (Core.Runtime.run t);
      Printf.fprintf human
        "advance: +%.1fs virtual; soft-state expiry retracted %d tuples\n" advance
        (Core.Runtime.tuples_retracted t - before)
    end;
    Printf.fprintf human "%s\n" (Net.Stats.to_string (Core.Runtime.stats t));
    List.iter
      (fun rel ->
        Printf.fprintf human "-- %s (%d tuples across all nodes)\n" rel
          (List.length (Core.Runtime.query_all t rel));
        List.iter
          (fun (at, tuple) ->
            Printf.fprintf human "  @%s %s\n" at (Engine.Tuple.to_string tuple))
          (Core.Runtime.query_all t rel))
      show;
    (match metrics_out with
    | Some path -> write_output path (Obs.Metrics.to_json_string Obs.Metrics.default ^ "\n")
    | None -> ());
    (match (trace_out, tracer) with
    | Some path, Some tr -> write_output path (Obs.Export.chrome_trace tr)
    | _ -> ());
    (match events_out with
    | Some path -> write_output path (Obs.Events.to_json_lines (Core.Runtime.event_log t))
    | None -> ());
    (* Checkpoint live tuples into the offline log so psn trace can
       answer for them after this process exits. *)
    (match Core.Runtime.prov_log t with
    | Some log ->
      Core.Runtime.sync_prov_log t;
      Printf.fprintf human
        "prov-log: %s (%d records, %d flows, %d digests, %d segments, %d bytes)\n"
        (Store.Prov_log.directory log)
        (Store.Prov_log.record_count log)
        (Store.Prov_log.flow_count log)
        (Store.Prov_log.digest_count log)
        (Store.Prov_log.segment_count log)
        (Store.Prov_log.bytes_on_disk log)
    | None -> ());
    (* Join the sharded engine's worker domains before exiting. *)
    Core.Runtime.shutdown t
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program over a simulated network")
    Term.(const run $ file $ nodes $ seed $ cfg $ rsa_bits
          $ loss $ dup $ reorder $ jitter $ crashes $ fault_seed $ reliable $ retries
          $ ack_timeout $ max_backoff $ shards
          $ prov_granularity $ flap_rate
          $ churn $ advance $ with_links
          $ show $ metrics_out $ trace_out $ events_out
          $ prov_log $ prov_sample)

(* --- psn trace --------------------------------------------------------- *)

(* Query the on-disk provenance log written by `psn run --prov-log`:
   full derivation-tree reconstruction from the record frames
   (default), or --moonwalk for the sampled approximation (Bloom
   prefilter + random moonwalk over the 1/K-sampled flow frames).
   Works in a fresh process, after the tuples — and the run that
   derived them — are gone. *)
let trace_cmd =
  let store =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Provenance log directory written by run --prov-log")
  in
  let tuple =
    Arg.(value & opt (some string) None
         & info [ "tuple" ] ~docv:"IDENT"
             ~doc:"Tuple identity to trace, e.g. \"path(a,c,2)\"")
  in
  let rel =
    Arg.(value & opt (some string) None
         & info [ "rel" ] ~docv:"REL" ~doc:"Trace every recorded tuple of a relation")
  in
  let at =
    Arg.(value & opt (some float) None
         & info [ "at" ] ~docv:"T"
             ~doc:"Only use log data stamped at or before virtual time T")
  in
  let moonwalk =
    Arg.(value & flag
         & info [ "moonwalk" ]
             ~doc:"Sampled backend (paper §5.2): Bloom-digest prefilter plus \
                   random moonwalks over the sampled flow log, reporting suspect \
                   origins instead of full trees")
  in
  let granularity =
    Arg.(value & opt string "node"
         & info [ "granularity" ] ~docv:"LEVEL"
             ~doc:"Tree detail: node (full) or domain (walks crossing out of the \
                   queried tuple's AS stop at the boundary)")
  in
  let format =
    Arg.(value & opt (enum [ ("tree", `Tree); ("json", `Json) ]) `Tree
         & info [ "format" ] ~doc:"Output format: tree | json")
  in
  let walks =
    Arg.(value & opt int 200 & info [ "walks" ] ~doc:"Moonwalk count (with --moonwalk)")
  in
  let seed =
    Arg.(value & opt int 2008 & info [ "seed" ] ~doc:"Random seed for --moonwalk")
  in
  let run store tuple rel at moonwalk granularity format walks seed =
    let target =
      match (tuple, rel) with
      | Some ident, None -> Core.Provenance_query.Tuple_id ident
      | None, Some r -> Core.Provenance_query.Relation r
      | _ ->
        Printf.eprintf "exactly one of --tuple or --rel is required\n";
        exit 2
    in
    let granularity =
      match Core.Config.granularity_of_string granularity with
      | Ok g -> g
      | Error e ->
        Printf.eprintf "--granularity: %s\n" e;
        exit 2
    in
    if not (Sys.file_exists store && Sys.is_directory store) then begin
      Printf.eprintf "no provenance log at %s\n" store;
      exit 1
    end;
    let log = Store.Prov_log.open_log ~dir:store () in
    Fun.protect
      ~finally:(fun () -> Store.Prov_log.close log)
      (fun () ->
        let q =
          { Core.Provenance_query.q_target = target;
            q_before = at;
            q_granularity = Some granularity;
            q_backend =
              (if moonwalk then Core.Provenance_query.Sampled log
               else Core.Provenance_query.Disk log) }
        in
        let rng = Crypto.Rng.create ~seed in
        let answer = Core.Provenance_query.run ~rng ~walks q in
        match format with
        | `Json ->
          print_endline (Obs.Json.to_string (Core.Provenance_query.answer_to_json answer));
          (match answer with
          | Core.Provenance_query.Trees [] -> exit 1
          | Core.Provenance_query.Suspects { suspects = []; _ } -> exit 1
          | _ -> ())
        | `Tree -> (
          match answer with
          | Core.Provenance_query.Trees [] ->
            Printf.eprintf "no provenance recorded for the target\n";
            exit 1
          | Core.Provenance_query.Trees findings ->
            List.iter
              (fun (f : Core.Provenance_query.finding) ->
                Printf.printf "-- %s @%s%s\n" f.f_ident f.f_node
                  (if f.f_result.Core.Traceback.partial then " (partial)" else "");
                Printf.printf "   provenance: <%s>\n"
                  (Provenance.Prov_expr.canonical_string
                     f.f_result.Core.Traceback.expr);
                print_string
                  (Provenance.Derivation.to_string f.f_result.Core.Traceback.tree))
              findings
          | Core.Provenance_query.Suspects { prefilter; suspects } ->
            Printf.printf "prefilter: %s\n"
              (match prefilter with
              | [] -> "(no digest admits the target)"
              | l -> String.concat " " l);
            if suspects = [] then begin
              Printf.eprintf "no sampled flows recorded for the target\n";
              exit 1
            end;
            Printf.printf "%-16s %s\n" "SUSPECT" "WALKS";
            List.iter
              (fun (node, hits) -> Printf.printf "%-16s %d\n" node hits)
              suspects))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Offline traceback over a persisted provenance log")
    Term.(const run $ store $ tuple $ rel $ at $ moonwalk $ granularity $ format
          $ walks $ seed)

(* --- psn stats -------------------------------------------------------- *)

(* Pretty-print a metrics snapshot (the JSON written by
   `psn run --metrics FILE`) as an aligned table. *)
let stats_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SNAPSHOT" ~doc:"Metrics snapshot JSON file (\"-\" for stdin)")
  in
  let rules_flag =
    Arg.(value & flag
         & info [ "rules" ]
             ~doc:"Render the per-rule profile (time, derivations, rounds, index \
                   probes/hits per rule) instead of the raw series table")
  in
  let top =
    Arg.(value & opt int 20
         & info [ "top" ] ~docv:"N" ~doc:"Rows to show in the --rules table")
  in
  let render_labels (j : Obs.Json.t) : string =
    match j with
    | Obs.Json.Obj [] | Obs.Json.Null -> ""
    | Obs.Json.Obj fields ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=%s" k
                 (Option.value (Obs.Json.to_string_opt v) ~default:"?"))
             fields)
      ^ "}"
    | _ -> ""
  in
  let num (j : Obs.Json.t option) : string =
    match j with
    | Some (Obs.Json.Int i) -> string_of_int i
    | Some (Obs.Json.Float f) -> Printf.sprintf "%.6g" f
    | Some Obs.Json.Null | None -> "-"
    | Some _ -> "?"
  in
  (* Per-bucket counts parsed back out of the snapshot, feeding the
     same percentile estimator the bench sections use. *)
  let parsed_buckets (m : Obs.Json.t) : (float * int) list =
    match Obs.Json.member "buckets" m with
    | Some (Obs.Json.List bs) ->
      List.filter_map
        (fun b ->
          match
            ( Option.bind (Obs.Json.member "le" b) Obs.Json.to_float_opt,
              Option.bind (Obs.Json.member "count" b) Obs.Json.to_int_opt )
          with
          | Some le, Some n -> Some (le, n)
          | _ -> None)
        bs
      |> List.sort compare
    | _ -> []
  in
  let float_member key m =
    Option.value ~default:0.0
      (Option.bind (Obs.Json.member key m) Obs.Json.to_float_opt)
  in
  let int_member key m =
    Option.value ~default:0 (Option.bind (Obs.Json.member key m) Obs.Json.to_int_opt)
  in
  let hist_percentile (m : Obs.Json.t) (q : float) : float =
    Obs.Profile.percentile_of_buckets ~buckets:(parsed_buckets m)
      ~min_v:(float_member "min" m) ~max_v:(float_member "max" m) q
  in
  (* Join the eval.rule_* series by their "rule" label into one row
     per rule and render the profile, hottest rule first. *)
  let render_rules (metrics : Obs.Json.t list) (top : int) : unit =
    let rule_of m =
      match Obs.Json.member "labels" m with
      | Some (Obs.Json.Obj fields) ->
        Option.bind (List.assoc_opt "rule" fields) Obs.Json.to_string_opt
      | _ -> None
    in
    let name_of m =
      Option.value ~default:"?"
        (Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt)
    in
    let rows : (string, float * int * int * int * int) Hashtbl.t = Hashtbl.create 16 in
    let update rule f =
      let cur =
        Option.value (Hashtbl.find_opt rows rule) ~default:(0.0, 0, 0, 0, 0)
      in
      Hashtbl.replace rows rule (f cur)
    in
    List.iter
      (fun m ->
        match rule_of m with
        | None -> ()
        | Some rule -> (
          match name_of m with
          | "eval.rule_seconds" ->
            update rule (fun (_, d, r, p, h) -> (float_member "sum" m, d, r, p, h))
          | "eval.rule_derivations" ->
            update rule (fun (s, _, r, p, h) -> (s, int_member "value" m, r, p, h))
          | "eval.rule_rounds" ->
            update rule (fun (s, d, _, p, h) -> (s, d, int_member "value" m, p, h))
          | "eval.rule_index_probes" ->
            update rule (fun (s, d, r, _, h) -> (s, d, r, int_member "value" m, h))
          | "eval.rule_index_hits" ->
            update rule (fun (s, d, r, p, _) -> (s, d, r, p, int_member "value" m))
          | _ -> ()))
      metrics;
    let sorted =
      Hashtbl.fold (fun rule row acc -> (rule, row) :: acc) rows []
      |> List.sort (fun (_, (s1, _, _, _, _)) (_, (s2, _, _, _, _)) ->
             compare s2 s1)
    in
    if sorted = [] then
      print_endline
        "no per-rule series in this snapshot (produced before profiling, or no \
         rules fired)"
    else begin
      Printf.printf "%-24s %12s %12s %8s %12s %12s\n" "RULE" "SECONDS" "DERIVATIONS"
        "ROUNDS" "PROBES" "HITS";
      List.iteri
        (fun i (rule, (s, d, r, p, h)) ->
          if i < top then
            Printf.printf "%-24s %12.6f %12d %8d %12d %12d\n" rule s d r p h)
        sorted;
      if List.length sorted > top then
        Printf.printf "(%d more rules; raise --top to see them)\n"
          (List.length sorted - top)
    end
  in
  let run file rules_flag top =
    let content =
      if file = "-" then In_channel.input_all In_channel.stdin
      else
        try read_file file
        with Sys_error msg ->
          Printf.eprintf "cannot read snapshot: %s\n" msg;
          exit 1
    in
    match Obs.Json.parse content with
    | exception Obs.Json.Parse_error msg ->
      Printf.eprintf "invalid snapshot: %s\n" msg;
      exit 1
    | doc -> (
      match Obs.Json.member "metrics" doc with
      | Some (Obs.Json.List metrics) ->
        if rules_flag then render_rules metrics top
        else begin
          Printf.printf "%-10s %-44s %s\n" "TYPE" "METRIC" "VALUE";
          List.iter
            (fun m ->
              let name =
                Option.value
                  (Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt)
                  ~default:"?"
              in
              let labels =
                Option.value (Option.map render_labels (Obs.Json.member "labels" m))
                  ~default:""
              in
              let kind =
                Option.value
                  (Option.bind (Obs.Json.member "type" m) Obs.Json.to_string_opt)
                  ~default:"?"
              in
              match kind with
              | "histogram" ->
                Printf.printf
                  "%-10s %-44s count=%s sum=%s min=%s p50=%.3g p90=%.3g p99=%.3g \
                   max=%s\n"
                  kind (name ^ labels)
                  (num (Obs.Json.member "count" m))
                  (num (Obs.Json.member "sum" m))
                  (num (Obs.Json.member "min" m))
                  (hist_percentile m 0.5) (hist_percentile m 0.9)
                  (hist_percentile m 0.99)
                  (num (Obs.Json.member "max" m))
              | _ ->
                Printf.printf "%-10s %-44s %s\n" kind (name ^ labels)
                  (num (Obs.Json.member "value" m)))
            metrics
        end
      | _ ->
        Printf.eprintf "not a metrics snapshot (no \"metrics\" array)\n";
        exit 1)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Pretty-print a metrics snapshot from run --metrics")
    Term.(const run $ file $ rules_flag $ top)

(* --- psn sweep -------------------------------------------------------- *)

let sweep_cmd =
  let ns =
    Arg.(value & opt (list int) [ 10; 20; 30 ]
         & info [ "ns" ] ~doc:"Network sizes to sweep")
  in
  let runs = Arg.(value & opt int 1 & info [ "runs" ] ~doc:"Runs to average per size") in
  let rsa_bits = Arg.(value & opt int 384 & info [ "rsa-bits" ] ~doc:"RSA modulus size") in
  let run ns runs rsa_bits =
    let opts =
      { Core.Bestpath_workload.default_opts with ro_runs = runs; ro_rsa_bits = rsa_bits }
    in
    let points = Core.Bestpath_workload.sweep ~opts ~ns () in
    print_string
      (Core.Metrics.figure_table points
         ~metric:(fun p -> p.Core.Bestpath_workload.p_sim_seconds)
         ~title:"Figure 3: query completion time (s)");
    print_string
      (Core.Metrics.figure_table points
         ~metric:(fun p -> p.Core.Bestpath_workload.p_megabytes)
         ~title:"Figure 4: bandwidth utilization (MB)");
    (* Authentication outcome totals across the sweep: failures and
       forged drops belong in the same report as the bandwidth they
       saved (all zero on the benign Best-Path workload). *)
    print_endline "authentication:";
    List.iter
      (fun config ->
        let sum f =
          List.fold_left
            (fun acc (p : Core.Bestpath_workload.point) ->
              if p.p_config = config then acc + f p else acc)
            0 points
        in
        Printf.printf "  %-12s verification_failures=%d dropped_forged=%d\n" config
          (sum (fun p -> p.p_verif_failures))
          (sum (fun p -> p.p_dropped_forged)))
      [ "NDLog"; "SeNDLog"; "SeNDLogProv" ]
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Reproduce the Figure 3/4 series")
    Term.(const run $ ns $ runs $ rsa_bits)

(* --- psn demo ---------------------------------------------------------- *)

let demo_cmd =
  let run () =
    print_endline "Figure 1: NDlog derivation tree for reachable(a,c)";
    print_string (Provenance.Derivation.to_string (Provenance.Derivation.figure1 ()));
    print_endline "\nFigure 2: SeNDlog derivation tree with condensed provenance";
    let f2 = Provenance.Derivation.figure2 () in
    print_string (Provenance.Derivation.to_string f2);
    let e = Provenance.Derivation.to_expr f2 in
    let ctx = Provenance.Condense.create_ctx () in
    Printf.printf "\nraw provenance:       %s\n" (Provenance.Prov_expr.to_annotation e);
    Printf.printf "condensed provenance: %s\n" (Provenance.Condense.annotation ctx e);
    Printf.printf "security level (a=2, b=1): %d\n" (Provenance.Trust.paper_example_level ())
  in
  Cmd.v (Cmd.info "demo" ~doc:"Figure 1/2 provenance walkthrough") Term.(const run $ const ())

let () =
  let info = Cmd.info "psn" ~version:"1.0.0" ~doc:"Provenance-aware secure networks" in
  exit
    (Cmd.eval
       (Cmd.group info [ parse_cmd; run_cmd; trace_cmd; stats_cmd; sweep_cmd; demo_cmd ]))
