(* Metrics registry: named counters, gauges, and log-scale histograms
   with labels, snapshot-able to JSON.

   Metric handles are cheap mutable cells; the registry maps
   (name, labels) to the handle so independent call sites share one
   series.  [reset] zeroes every series *in place*, so handles cached
   by instrumented code (e.g. the histograms in Crypto.Rsa) stay
   attached across runs — `psn run` and the sweep harness reset the
   default registry between measured phases.

   Histograms use base-2 log-scale buckets: an observation lands in
   the bucket whose upper bound is the next power of two (via
   [Float.frexp]), which spans nanoseconds to hours in ~60 buckets
   with zero configuration.  Bucket counts in the JSON snapshot are
   per-bucket. *)

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : (int, int ref) Hashtbl.t; (* binary exponent -> count *)
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type registry = { tbl : (string, metric) Hashtbl.t }

(* One process-wide lock covers every registry: lookup/creation, all
   mutations, and snapshot iteration.  The sharded engine's
   worker domains record into the shared default registry, and OCaml 5
   Hashtbls are not safe under concurrent mutation.  A single global
   mutex (rather than per-registry) keeps handle mutation safe even
   when a handle outlives a registry reference; the sections are a few
   instructions, so uncontended cost is negligible next to the rule
   evaluation they instrument. *)
let mu = Mutex.create ()

let locked (f : unit -> 'a) : 'a =
  Mutex.lock mu;
  match f () with
  | r ->
    Mutex.unlock mu;
    r
  | exception e ->
    Mutex.unlock mu;
    raise e

let create () : registry = { tbl = Hashtbl.create 64 }

(* Shared default registry: the low-level layers (Engine.Eval,
   Crypto.Rsa, Net.Stats, Provenance.Condense) record here so the
   instrumentation needs no API threading. *)
let default : registry = create ()

let key (name : string) (labels : (string * string) list) : string =
  match labels with
  | [] -> name
  | _ ->
    let sorted = List.sort compare labels in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) sorted)
    ^ "}"

let find_or_create (reg : registry) ~(name : string)
    ~(labels : (string * string) list) (make : unit -> metric) : metric =
  let k = key name labels in
  locked (fun () ->
      match Hashtbl.find_opt reg.tbl k with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace reg.tbl k m;
        m)

(* --- counters --------------------------------------------------------- *)

let counter (reg : registry) ?(labels = []) (name : string) : counter =
  match
    find_or_create reg ~name ~labels (fun () ->
        M_counter { c_name = name; c_labels = labels; c_value = 0 })
  with
  | M_counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %s is not a counter" name)

let inc ?(by = 1) (c : counter) : unit =
  Mutex.lock mu;
  c.c_value <- c.c_value + by;
  Mutex.unlock mu

let value (c : counter) : int = c.c_value

(* --- gauges ----------------------------------------------------------- *)

let gauge (reg : registry) ?(labels = []) (name : string) : gauge =
  match
    find_or_create reg ~name ~labels (fun () ->
        M_gauge { g_name = name; g_labels = labels; g_value = 0.0 })
  with
  | M_gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %s is not a gauge" name)

let set (g : gauge) (v : float) : unit =
  Mutex.lock mu;
  g.g_value <- v;
  Mutex.unlock mu

(* High-water mark (e.g. maximum event-queue depth). *)
let set_max (g : gauge) (v : float) : unit =
  Mutex.lock mu;
  if v > g.g_value then g.g_value <- v;
  Mutex.unlock mu

let gauge_value (g : gauge) : float = g.g_value

(* --- histograms ------------------------------------------------------- *)

let histogram (reg : registry) ?(labels = []) (name : string) : histogram =
  match
    find_or_create reg ~name ~labels (fun () ->
        M_histogram
          { h_name = name;
            h_labels = labels;
            h_count = 0;
            h_sum = 0.0;
            h_min = Float.infinity;
            h_max = Float.neg_infinity;
            h_buckets = Hashtbl.create 16 })
  with
  | M_histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %s is not a histogram" name)

(* Bucket index of a positive observation: the binary exponent [e]
   with v in [2^(e-1), 2^e); bucket upper bound is 2^e.  Nonpositive
   observations share a single "le 0" bucket. *)
let nonpositive_bucket = min_int

let bucket_of (v : float) : int =
  if v <= 0.0 then nonpositive_bucket
  else begin
    let _, e = Float.frexp v in
    e
  end

let bucket_upper_bound (b : int) : float =
  if b = nonpositive_bucket then 0.0 else Float.ldexp 1.0 b

let observe (h : histogram) (v : float) : unit =
  Mutex.lock mu;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  (match Hashtbl.find_opt h.h_buckets b with
  | Some r -> incr r
  | None -> Hashtbl.replace h.h_buckets b (ref 1));
  Mutex.unlock mu

(* Time [f] on the wall clock into histogram [h]. *)
let timed (h : histogram) (f : unit -> 'a) : 'a =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

let hist_count (h : histogram) : int = h.h_count

let hist_sum (h : histogram) : float = h.h_sum

(* --- registry-wide operations ----------------------------------------- *)

let reset (reg : registry) : unit =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> c.c_value <- 0
          | M_gauge g -> g.g_value <- 0.0
          | M_histogram h ->
            h.h_count <- 0;
            h.h_sum <- 0.0;
            h.h_min <- Float.infinity;
            h.h_max <- Float.neg_infinity;
            Hashtbl.reset h.h_buckets)
        reg.tbl)

let sorted_metrics (reg : registry) : (string * metric) list =
  locked (fun () ->
      Hashtbl.fold (fun k m acc -> (k, m) :: acc) reg.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_buckets (h : histogram) : (int * int) list =
  Hashtbl.fold (fun b r acc -> (b, !r) :: acc) h.h_buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let labels_json (labels : (string * string) list) : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (List.sort compare labels))

let metric_json (m : metric) : Json.t =
  match m with
  | M_counter c ->
    Json.Obj
      [ ("name", Json.Str c.c_name);
        ("type", Json.Str "counter");
        ("labels", labels_json c.c_labels);
        ("value", Json.Int c.c_value) ]
  | M_gauge g ->
    Json.Obj
      [ ("name", Json.Str g.g_name);
        ("type", Json.Str "gauge");
        ("labels", labels_json g.g_labels);
        ("value", Json.Float g.g_value) ]
  | M_histogram h ->
    Json.Obj
      [ ("name", Json.Str h.h_name);
        ("type", Json.Str "histogram");
        ("labels", labels_json h.h_labels);
        ("count", Json.Int h.h_count);
        ("sum", Json.Float h.h_sum);
        ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
        ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
        ("buckets",
         Json.List
           (List.map
              (fun (b, n) ->
                Json.Obj
                  [ ("le", Json.Float (bucket_upper_bound b)); ("count", Json.Int n) ])
              (sorted_buckets h))) ]

let to_json (reg : registry) : Json.t =
  Json.Obj
    [ ("metrics", Json.List (List.map (fun (_, m) -> metric_json m) (sorted_metrics reg))) ]

let to_json_string (reg : registry) : string = Json.to_string (to_json reg)
