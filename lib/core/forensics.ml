(* Forensics (Sections 3 and 5): IP-traceback-style sampling and
   random moonwalks.

   These are storage/accuracy trade-offs the paper surveys for
   historical traffic: instead of full per-packet provenance, routers
   emit probabilistic marks every 1/k packets (IP traceback [22]), and
   queries over a flow graph can use random moonwalks [26] instead of
   exhaustive traversal.  The third, per-epoch Bloom digests of what a
   node forwarded (ForNet [23]), is kept by the provenance log
   (Store.Prov_log), as are the sampled flows a moonwalk walks. *)

(* --- IP-traceback-style sampling -------------------------------------- *)

(* Savage et al.: each router marks a packet with its own address with
   probability 1/k (the paper quotes 1/20,000); the victim
   reconstructs the path from collected marks.  [simulate_traceback]
   pushes [n_packets] along [path] and reports which routers were
   recovered and how many packets it took to see them all. *)

type traceback_sim = {
  ts_recovered : string list; (* routers seen in marks *)
  ts_complete : bool;
  ts_packets_needed : int option; (* packets until full path recovered *)
}

let simulate_traceback (rng : Crypto.Rng.t) ~(path : string list)
    ~(mark_probability : float) ~(n_packets : int) : traceback_sim =
  let seen = Hashtbl.create 16 in
  let needed = ref None in
  let total = List.length path in
  for pkt = 1 to n_packets do
    List.iter
      (fun router ->
        if Crypto.Rng.float rng 1.0 < mark_probability then begin
          if not (Hashtbl.mem seen router) then begin
            Hashtbl.replace seen router ();
            if Hashtbl.length seen = total && !needed = None then needed := Some pkt
          end
        end)
      path
  done;
  { ts_recovered = Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort String.compare;
    ts_complete = Hashtbl.length seen = total;
    ts_packets_needed = !needed }

(* --- random moonwalks -------------------------------------------------- *)

(* Xie et al. [26]: repeated backward random walks over the
   communication graph concentrate at the attack origin.  The flow
   graph is a list of directed edges (src, dst, time); a walk starts
   from a random late edge and repeatedly steps to a uniformly random
   earlier incoming edge at the current source. *)

let random_moonwalk (rng : Crypto.Rng.t) ~(flows : Store.Prov_log.flow list) ~(walks : int)
    ~(max_hops : int) : (string * int) list =
  let arrivals = Hashtbl.create 64 in
  List.iter
    (fun (f : Store.Prov_log.flow) ->
      let cur = Option.value (Hashtbl.find_opt arrivals f.fl_dst) ~default:[] in
      Hashtbl.replace arrivals f.fl_dst (f :: cur))
    flows;
  let origins = Hashtbl.create 16 in
  let flows_arr = Array.of_list flows in
  if Array.length flows_arr = 0 then []
  else begin
    for _ = 1 to walks do
      (* Start from a random flow, walk backwards in time. *)
      let start = flows_arr.(Crypto.Rng.int rng (Array.length flows_arr)) in
      let rec step (f : Store.Prov_log.flow) (hops : int) =
        if hops >= max_hops then f.fl_src
        else begin
          let incoming =
            List.filter
              (fun (g : Store.Prov_log.flow) -> g.fl_time < f.fl_time)
              (Option.value (Hashtbl.find_opt arrivals f.fl_src) ~default:[])
          in
          match incoming with
          | [] -> f.fl_src
          | _ -> step (Crypto.Rng.pick rng incoming) (hops + 1)
        end
      in
      let origin = step start 0 in
      Hashtbl.replace origins origin
        (Option.value (Hashtbl.find_opt origins origin) ~default:0 + 1)
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) origins []
    |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)
  end
