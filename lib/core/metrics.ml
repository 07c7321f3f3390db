(* Overhead summaries matching the prose of Section 6.

   The paper reports, besides the two figures, four derived numbers:
   - SeNDlog vs NDlog:     avg +53% time, +36% bandwidth;
                           at N = 100: +44%, +17%;
   - SeNDlogProv vs SeNDlog: avg +41% time, +54% bandwidth;
                           at N = 100: +6%, +10%.
   [overhead_summary] computes the same ratios from a sweep. *)

type overhead = {
  ov_base : string;
  ov_variant : string;
  ov_avg_time_pct : float;
  ov_avg_bw_pct : float;
  ov_at_max_n_time_pct : float;
  ov_at_max_n_bw_pct : float;
  ov_max_n : int;
}

let pct value base = if base = 0.0 then 0.0 else 100.0 *. ((value /. base) -. 1.0)

let find_point (points : Bestpath_workload.point list) ~config ~n :
    Bestpath_workload.point option =
  List.find_opt
    (fun (p : Bestpath_workload.point) -> p.p_config = config && p.p_n = n)
    points

let ns_of (points : Bestpath_workload.point list) : int list =
  List.map (fun (p : Bestpath_workload.point) -> p.p_n) points
  |> List.sort_uniq Stdlib.compare

(* Average relative overhead of [variant] over [base] across all N,
   plus the value at the largest N. *)
let overhead (points : Bestpath_workload.point list) ~(base : string)
    ~(variant : string) : overhead option =
  let ns = ns_of points in
  let pairs =
    List.filter_map
      (fun n ->
        match (find_point points ~config:base ~n, find_point points ~config:variant ~n) with
        | Some b, Some v -> Some (n, b, v)
        | _ -> None)
      ns
  in
  match pairs with
  | [] -> None
  | _ ->
    let time_pcts =
      List.map (fun (_, b, v) ->
          pct v.Bestpath_workload.p_wall_seconds b.Bestpath_workload.p_wall_seconds)
        pairs
    in
    let bw_pcts =
      List.map (fun (_, b, v) ->
          pct v.Bestpath_workload.p_megabytes b.Bestpath_workload.p_megabytes)
        pairs
    in
    let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
    let max_n, bmax, vmax =
      List.fold_left
        (fun (bn, bb, bv) (n, b, v) -> if n > bn then (n, b, v) else (bn, bb, bv))
        (List.hd pairs) (List.tl pairs)
    in
    Some
      { ov_base = base;
        ov_variant = variant;
        ov_avg_time_pct = avg time_pcts;
        ov_avg_bw_pct = avg bw_pcts;
        ov_at_max_n_time_pct =
          pct vmax.Bestpath_workload.p_wall_seconds bmax.Bestpath_workload.p_wall_seconds;
        ov_at_max_n_bw_pct =
          pct vmax.Bestpath_workload.p_megabytes bmax.Bestpath_workload.p_megabytes;
        ov_max_n = max_n }

let overhead_to_string (o : overhead) : string =
  Printf.sprintf
    "%s vs %s: avg +%.0f%% time, +%.0f%% bandwidth; at N=%d: +%.0f%% time, +%.0f%% bandwidth"
    o.ov_variant o.ov_base o.ov_avg_time_pct o.ov_avg_bw_pct o.ov_max_n
    o.ov_at_max_n_time_pct o.ov_at_max_n_bw_pct

(* Render a sweep as the two figure series, one row per N with the
   three configurations as columns (the series plotted in Figures 3
   and 4). *)
let figure_table (points : Bestpath_workload.point list)
    ~(metric : Bestpath_workload.point -> float) ~(title : string) : string =
  let buf = Buffer.create 256 in
  let configs = [ "NDLog"; "SeNDLog"; "SeNDLogProv" ] in
  Buffer.add_string buf (Printf.sprintf "%s\n%-6s %12s %12s %12s\n" title "N"
      (List.nth configs 0) (List.nth configs 1) (List.nth configs 2));
  List.iter
    (fun n ->
      Buffer.add_string buf (Printf.sprintf "%-6d" n);
      List.iter
        (fun c ->
          match find_point points ~config:c ~n with
          | Some p -> Buffer.add_string buf (Printf.sprintf " %12.3f" (metric p))
          | None -> Buffer.add_string buf (Printf.sprintf " %12s" "-"))
        configs;
      Buffer.add_char buf '\n')
    (ns_of points);
  Buffer.contents buf

(* The paper-style checks on a sweep's *shape* (used by tests):
   ordering NDlog <= SeNDlog <= SeNDlogProv at every N, and
   decreasing relative overhead as N grows. *)
let ordering_holds (points : Bestpath_workload.point list)
    ~(metric : Bestpath_workload.point -> float) : bool =
  List.for_all
    (fun n ->
      match
        ( find_point points ~config:"NDLog" ~n,
          find_point points ~config:"SeNDLog" ~n,
          find_point points ~config:"SeNDLogProv" ~n )
      with
      | Some a, Some b, Some c -> metric a <= metric b && metric b <= metric c
      | _ -> true)
    (ns_of points)

(* --- bench regression gate --------------------------------------------

   [compare_bench ~baseline ~current] diffs two BENCH_results.json
   documents and returns human-readable regression messages (empty =
   pass).  It is pure over parsed JSON so tests can feed synthetic
   documents; the bench harness turns a non-empty result into a
   non-zero exit.

   Wall-clock comparisons are normalized by each document's
   [calibration_ops_per_sec] (a fixed SHA-256 spin measured at run
   time): a slower machine reports a lower calibration, and its wall
   times are scaled down by the ratio before comparison, so the gate
   flags *relative* slowdowns of the code, not of the hardware.

   Thresholds:
   - wall seconds ([*_wall_seconds], normalized): beyond +15% plus a
     0.25s absolute slack is a regression (the slack keeps sub-second
     smoke walls from flaking on shared-machine noise; a real >=20%
     regression on a multi-second wall still clears both).  Values
     under 10ms in the baseline are skipped entirely.
   - speedups ([speedup]): below 70% of the baseline ratio fails.
   - fixpoint sizes ([best_paths]): must match exactly.
   - simulated completion ([reliable_max_sim_seconds]): > +25% fails
     (virtual time is latency-dominated, but measured compute feeds
     the cost model, so a little slack is needed). *)

let json_num (j : Obs.Json.t) : float option =
  match j with
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

let bench_value (doc : Obs.Json.t) (path : string list) : float option =
  let rec go doc = function
    | [] -> json_num doc
    | k :: rest -> Option.bind (Obs.Json.member k doc) (fun d -> go d rest)
  in
  go doc path

let compare_bench ~(baseline : Obs.Json.t) ~(current : Obs.Json.t) : string list =
  let issues = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let path_str path = String.concat "." path in
  (* Wall normalization factor: scale current wall seconds by
     base_cal / cur_cal... inverted: a machine half as fast has
     cur_cal = base_cal/2 and wall times twice the baseline's, so
     multiply current wall by (cur_cal /. base_cal) to land in
     baseline units. *)
  let cal doc = bench_value doc [ "calibration_ops_per_sec" ] in
  let norm =
    match (cal baseline, cal current) with
    | Some b, Some c when b > 0.0 && c > 0.0 -> c /. b
    | _ -> 1.0
  in
  let wall path =
    match (bench_value baseline path, bench_value current path) with
    | Some b, Some c when b >= 0.01 ->
      let c' = c *. norm in
      if c' > (b *. 1.15) +. 0.25 then
        flag "%s regressed: %.3fs -> %.3fs normalized (+%.0f%%, limit +15%% + 0.25s)"
          (path_str path) b c'
          (100.0 *. ((c' /. b) -. 1.0))
    | _ -> ()
  in
  let speedup path =
    match (bench_value baseline path, bench_value current path) with
    | Some b, Some c when b > 0.0 ->
      if c < 0.7 *. b then
        flag "%s collapsed: %.2fx -> %.2fx (limit 70%% of baseline)" (path_str path) b c
    | _ -> ()
  in
  let exact path =
    match (bench_value baseline path, bench_value current path) with
    | Some b, Some c when b <> c ->
      flag "%s changed: %g -> %g (fixpoint sizes must match the baseline)"
        (path_str path) b c
    | Some _, Some _ -> ()
    | Some _, None -> flag "%s missing from current results" (path_str path)
    | None, _ -> ()
  in
  let sim path =
    match (bench_value baseline path, bench_value current path) with
    | Some b, Some c when b > 0.0 && c > b *. 1.25 ->
      flag "%s regressed: %.3fs -> %.3fs simulated (+%.0f%%, limit +25%%)"
        (path_str path) b c
        (100.0 *. ((c /. b) -. 1.0))
    | _ -> ()
  in
  List.iter wall
    [ [ "jobs_ablation"; "seq_wall_seconds" ];
      [ "jobs_ablation"; "par_wall_seconds" ];
      [ "shards_ablation"; "seq_wall_seconds" ];
      [ "shards_ablation"; "sharded_wall_seconds" ];
      [ "verify_ablation"; "ndlog_wall_seconds" ];
      [ "verify_ablation"; "batched_wall_seconds" ];
      [ "forensics_ablation"; "base_wall_seconds" ];
      [ "forensics_ablation"; "provlog_wall_seconds" ];
      [ "forensics_ablation"; "offline_query"; "p99_seconds" ] ];
  List.iter speedup
    [ [ "jobs_ablation"; "speedup" ];
      [ "shards_ablation"; "speedup" ] ];
  List.iter exact
    [ [ "jobs_ablation"; "best_paths" ];
      [ "shards_ablation"; "fixpoint_rows" ];
      [ "verify_ablation"; "best_paths" ];
      [ "fault_ablation"; "baseline_best_paths" ];
      [ "forensics_ablation"; "best_paths" ] ];
  sim [ "fault_ablation"; "reliable_max_sim_seconds" ];
  List.rev !issues

let overhead_decreases (points : Bestpath_workload.point list) ~(base : string)
    ~(variant : string) ~(metric : Bestpath_workload.point -> float) : bool =
  let ns = ns_of points in
  match (ns, List.rev ns) with
  | n_first :: _, n_last :: _ when n_first <> n_last -> (
    let ratio n =
      match (find_point points ~config:base ~n, find_point points ~config:variant ~n) with
      | Some b, Some v when metric b > 0.0 -> Some (metric v /. metric b)
      | _ -> None
    in
    match (ratio n_first, ratio n_last) with
    | Some r1, Some r2 -> r2 <= r1
    | _ -> true)
  | _ -> true
