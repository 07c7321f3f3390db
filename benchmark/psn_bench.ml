(* psn_bench: the repository benchmark.

     psn_bench.exe --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
       One run of one workload.  Prints "workload metric value unit"
       lines, then one JSON object: correct, attempted, failed and
       the metrics (end-to-end with --trace 0, per-layer with
       --trace 1).  A traced run also writes D/W.trace.json (Chrome
       trace of the bench spans) and D/W.layers.json.
     psn_bench.exe --all --seed N --out FILE [--seconds S] [--traced] [--trace-dir D]
       Every workload in its own child process, one at a time;
       appends one JSON line per run to FILE and exits nonzero on any
       failed check.
     psn_bench.exe --compare A B [--spec BENCHMARK.json]
       Medians and quartiles of two sets of --all runs, judged against
       the bounds in the spec; exits nonzero on "worse".
     psn_bench.exe --selftest [--spec BENCHMARK.json]
       Every workload at its smallest size, both modes: checks the
       oracles and that every declared metric is emitted, finite. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("psn_bench: " ^ msg); exit 2) fmt

(* --- the result line ------------------------------------------------------ *)

(* All digits of every measurement: "%.17g" round-trips a double. *)
let number (f : float) : string =
  if Float.is_finite f then Printf.sprintf "%.17g" f else die "non-finite value %f" f

let result_line (o : Workload.outcome) : string =
  let metrics =
    List.map
      (fun (x : Workload.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Workload.m_name (number x.m_value)
          x.m_unit)
      o.Workload.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.Workload.failed = 0) (max 1 o.Workload.attempted) o.Workload.failed
    (String.concat ", " metrics)

let write_file (path : string) (contents : string) : unit =
  Workload.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let scratch_dir () = Filename.concat ".psn_bench" (Printf.sprintf "run-%d" (Unix.getpid ()))

let run_one (spec : Workload.spec) ~seed ~seconds ~trace ~trace_dir : unit =
  let o, elapsed =
    Workload.clock (fun () -> Workload.run spec ~seed ~seconds ~trace ~scratch:(scratch_dir ()))
  in
  Printf.eprintf "psn_bench: %s seed %d: %d cycles of %d topologies, %.1f s in all\n%!"
    spec.Workload.name seed o.Workload.cycles o.Workload.topologies_per_cycle elapsed;
  (match (o.Workload.trace_json, o.Workload.layers_json) with
  | Some chrome, Some layers ->
    write_file (Filename.concat trace_dir (spec.Workload.name ^ ".trace.json")) chrome;
    write_file
      (Filename.concat trace_dir (spec.Workload.name ^ ".layers.json"))
      (Obs.Json.to_string layers ^ "\n")
  | _ -> ());
  List.iter
    (fun (x : Workload.metric) ->
      Printf.printf "%s %s %s %s\n" spec.Workload.name x.Workload.m_name (number x.m_value) x.m_unit)
    o.Workload.metrics;
  Option.iter (fun why -> Printf.eprintf "psn_bench: %s: FAILED: %s\n" spec.Workload.name why)
    o.Workload.failure;
  print_endline (result_line o)

(* --- --all --------------------------------------------------------------- *)

let nproc () : int =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> 0
  | ic ->
    let n = Option.bind (In_channel.input_line ic) int_of_string_opt in
    ignore (Unix.close_process_in ic);
    Option.value n ~default:0

(* Run one workload in a child process and return its output lines. *)
let child (args : string list) : string list * Unix.process_status =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (lines, status)

let run_all ~seed ~seconds ~traced ~out ~trace_dir : unit =
  let meta =
    [ ("nproc", Obs.Json.Int (nproc ()));
      ("recommended_domain_count", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("calibration_probe_s", Obs.Json.Float (Calib.probe ())) ]
  in
  let ok = ref true in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  List.iter
    (fun trace ->
      List.iter
        (fun (s : Workload.spec) ->
          let lines, status =
            child
              [ "--workload"; s.Workload.name; "--seed"; string_of_int seed; "--seconds";
                number seconds; "--trace"; (if trace then "1" else "0"); "--trace-dir"; trace_dir ]
          in
          let result =
            match (status, List.rev lines) with
            | Unix.WEXITED 0, last :: _ -> (
              match Obs.Json.parse last with
              | exception Obs.Json.Parse_error _ -> None
              | json -> Some json)
            | _ -> None
          in
          List.iter print_endline (match List.rev lines with _ :: metrics -> List.rev metrics | [] -> []);
          match result with
          | Some json ->
            if Obs.Json.member "correct" json <> Some (Obs.Json.Bool true) then ok := false;
            output_string oc
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    ([ ("workload", Obs.Json.Str s.Workload.name);
                       ("seed", Obs.Json.Int seed);
                       ("trace", Obs.Json.Int (if trace then 1 else 0));
                       ("result", json) ]
                    @ meta))
              ^ "\n");
            flush oc
          | None ->
            ok := false;
            Printf.eprintf "psn_bench: %s: the run did not finish with a result\n%!"
              s.Workload.name)
        Workload.all)
    (if traced then [ false; true ] else [ false ]);
  close_out oc;
  if not !ok then begin
    prerr_endline "psn_bench: some check FAILED";
    exit 1
  end

(* --- BENCHMARK.json --------------------------------------------------------- *)

type declared = {
  d_name : string;
  d_unit : string;
  d_lower_better : bool;
  d_bound : float;
}

let read_json (path : string) : Obs.Json.t =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | text -> ( try Obs.Json.parse text with Obs.Json.Parse_error e -> die "%s: %s" path e)

let declared (spec : Obs.Json.t) (section : string) : declared list =
  match Obs.Json.member section spec with
  | Some (Obs.Json.List items) ->
    List.map
      (fun item ->
        let str k = Option.bind (Obs.Json.member k item) Obs.Json.to_string_opt in
        match (str "name", str "unit") with
        | Some d_name, Some d_unit ->
          { d_name;
            d_unit;
            d_lower_better = str "better" <> Some "higher";
            d_bound =
              Option.value ~default:0.0
                (Option.bind (Obs.Json.member "bound" item) Obs.Json.to_float_opt) }
        | _ -> die "%s: an entry has no name or unit" section)
      items
  | _ -> die "the spec has no %s list" section

(* --- --compare -------------------------------------------------------------- *)

(* workload -> metric -> values, from the untraced runs of an --all file. *)
let load_set (path : string) : (string * (string * float list) list) list =
  let table : (string, (string, float list) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun line ->
         let json = try Obs.Json.parse line with Obs.Json.Parse_error e -> die "%s: %s" path e in
         let workload = Option.bind (Obs.Json.member "workload" json) Obs.Json.to_string_opt in
         let trace = Option.bind (Obs.Json.member "trace" json) Obs.Json.to_int_opt in
         let metrics =
           Option.bind (Obs.Json.member "result" json) (Obs.Json.member "metrics")
         in
         match (workload, trace, metrics) with
         | Some w, Some 0, Some (Obs.Json.Obj ms) ->
           let per_metric =
             match Hashtbl.find_opt table w with
             | Some t -> t
             | None ->
               let t = Hashtbl.create 8 in
               Hashtbl.replace table w t;
               order := w :: !order;
               t
           in
           List.iter
             (fun (name, v) ->
               match Option.bind (Obs.Json.member "value" v) Obs.Json.to_float_opt with
               | Some x ->
                 Hashtbl.replace per_metric name
                   (x :: Option.value (Hashtbl.find_opt per_metric name) ~default:[])
               | None -> ())
             ms
         | _ -> ());
  List.rev_map
    (fun w ->
      let t = Hashtbl.find table w in
      (w, Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []))
    !order

let verdict (d : declared) (a : float list) (b : float list) : string =
  let _, ma, _ = Summary.quartiles a and _, mb, _ = Summary.quartiles b in
  (* Positive = B is worse than A. *)
  let worse x y = if d.d_lower_better then y -. x else x -. y in
  let delta = Summary.ratio (worse ma mb) (Float.abs ma) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> worse x y < 0.0) a) b in
  if Float.max (Summary.spread a) (Summary.spread b) > d.d_bound then
    if all_better then "better" else "unresolved"
  else if delta > d.d_bound then "worse"
  else if delta < -.d.d_bound then "better"
  else "within bound"

let compare_sets ~spec_path (a_path : string) (b_path : string) : unit =
  let metrics = declared (read_json spec_path) "end_to_end" in
  let a = load_set a_path and b = load_set b_path in
  let worse = ref false in
  Printf.printf "%-22s %-17s %-38s %-38s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B vs A" "bound" "verdict";
  List.iter
    (fun (w, a_metrics) ->
      let b_metrics = Option.value (List.assoc_opt w b) ~default:[] in
      List.iter
        (fun d ->
          let xs = Option.value (List.assoc_opt d.d_name a_metrics) ~default:[] in
          let ys = Option.value (List.assoc_opt d.d_name b_metrics) ~default:[] in
          let show vs =
            let q1, med, q3 = Summary.quartiles vs in
            Printf.sprintf "%.6g [%.6g, %.6g] n=%d" med q1 q3 (List.length vs)
          in
          let v = if xs = [] || ys = [] then "missing" else verdict d xs ys in
          if v = "worse" || v = "missing" then worse := true;
          let _, ma, _ = Summary.quartiles xs and _, mb, _ = Summary.quartiles ys in
          Printf.printf "%-22s %-17s %-38s %-38s %+7.2f%% %5.1f%%  %s\n" w d.d_name (show xs)
            (show ys)
            (100.0 *. Summary.ratio (mb -. ma) (Float.abs ma))
            (100.0 *. d.d_bound) v)
        metrics)
    a;
  if !worse then exit 1

(* --- --selftest ------------------------------------------------------------- *)

let selftest ~spec_path : unit =
  let spec = read_json spec_path in
  let e2e = declared spec "end_to_end" and layers = declared spec "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (s : Workload.spec) ->
      let s = Workload.small s in
      List.iter
        (fun (trace, expected) ->
          let o =
            Workload.run s ~seed:2008 ~seconds:0.0 ~trace ~scratch:(scratch_dir ())
          in
          if o.Workload.failed > 0 then
            problem "%s: %d failed checks (%s)" s.Workload.name o.Workload.failed
              (Option.value o.Workload.failure ~default:"");
          let got = List.map (fun (x : Workload.metric) -> (x.Workload.m_name, x)) o.Workload.metrics in
          if List.length got <> List.length expected then
            problem "%s: %d metrics emitted, %d declared" s.Workload.name (List.length got)
              (List.length expected);
          List.iter
            (fun d ->
              match List.assoc_opt d.d_name got with
              | None -> problem "%s: %s not emitted" s.Workload.name d.d_name
              | Some x ->
                if not (Float.is_finite x.Workload.m_value) then
                  problem "%s: %s is not finite" s.Workload.name d.d_name;
                if x.Workload.m_unit <> d.d_unit then
                  problem "%s: %s in %s, declared %s" s.Workload.name d.d_name x.Workload.m_unit
                    d.d_unit)
            expected;
          Printf.printf "selftest %s trace=%b: %d checks, %d failed\n%!" s.Workload.name trace
            o.Workload.attempted o.Workload.failed)
        [ (false, e2e); (true, layers) ])
    Workload.all;
  match List.rev !problems with
  | [] -> print_endline "selftest: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("selftest: " ^ p)) ps;
    exit 1

(* --- command line ---------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let flag name = List.mem name args in
  let int_opt name ~default =
    match opt name args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer: %s" name v)
  in
  let seconds =
    match opt "--seconds" args with
    | None -> 15.0
    | Some v -> (
      match float_of_string_opt v with
      | Some f when f >= 0.0 -> f
      | _ -> die "--seconds: not a duration: %s" v)
  in
  let spec_path = Option.value (opt "--spec" args) ~default:"BENCHMARK.json" in
  let trace_dir = Option.value (opt "--trace-dir" args) ~default:".psn_bench/traces" in
  if flag "--selftest" then selftest ~spec_path
  else if flag "--compare" then
    match List.filter (fun a -> a <> "--compare") args with
    | a :: b :: _ when not (String.starts_with ~prefix:"--" a) -> compare_sets ~spec_path a b
    | _ -> die "usage: --compare A.json B.json [--spec BENCHMARK.json]"
  else if flag "--all" then
    match opt "--out" args with
    | Some out ->
      run_all ~seed:(int_opt "--seed" ~default:2008) ~seconds ~traced:(flag "--traced") ~out
        ~trace_dir
    | None -> die "--all needs --out FILE"
  else
    match opt "--workload" args with
    | None -> die "usage: --workload W --seed N --seconds S --trace 0|1 (or --all, --compare, --selftest)"
    | Some name -> (
      match Workload.find name with
      | None ->
        die "unknown workload %s (one of: %s)" name
          (String.concat ", " (List.map (fun (s : Workload.spec) -> s.Workload.name) Workload.all))
      | Some spec ->
        let trace =
          match opt "--trace" args with
          | None | Some "0" -> false
          | Some "1" -> true
          | Some v -> die "--trace: expected 0 or 1, got %s" v
        in
        run_one spec ~seed:(int_opt "--seed" ~default:2008) ~seconds ~trace ~trace_dir)
