(* Independent correctness oracle for Best-Path.

   All-pairs shortest costs by Floyd–Warshall over the topology's
   directed links, computed without touching the engine.  A run's
   [bestPathCost] and [bestPath] relations are checked against it
   tuple by tuple: every ordered pair of distinct nodes must have
   exactly one answer of optimal cost, and every [bestPath] must be a
   chain of physical links from its source to its destination whose
   costs add up to the answer. *)

type t = {
  index : (string, int) Hashtbl.t;
  dist : int array array;
  link_cost : (string * string, int) Hashtbl.t;
  pairs : int; (* ordered pairs (s, d), s <> d, with d reachable from s *)
}

let unreachable = max_int / 4

let build (topo : Net.Topology.t) : t =
  let nodes = Array.of_list topo.Net.Topology.nodes in
  let n = Array.length nodes in
  let index = Hashtbl.create n in
  Array.iteri (fun i a -> Hashtbl.replace index a i) nodes;
  let dist = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else unreachable)) in
  let link_cost = Hashtbl.create 64 in
  List.iter
    (fun (l : Net.Topology.link) ->
      let s = Hashtbl.find index l.Net.Topology.l_src in
      let d = Hashtbl.find index l.Net.Topology.l_dst in
      dist.(s).(d) <- min dist.(s).(d) l.Net.Topology.l_cost;
      Hashtbl.replace link_cost (l.Net.Topology.l_src, l.Net.Topology.l_dst) l.Net.Topology.l_cost)
    topo.Net.Topology.links;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = dist.(i).(k) in
      if dik < unreachable then
        for j = 0 to n - 1 do
          let via = dik + dist.(k).(j) in
          if via < dist.(i).(j) then dist.(i).(j) <- via
        done
    done
  done;
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && dist.(i).(j) < unreachable then incr pairs
    done
  done;
  { index; dist; link_cost; pairs = !pairs }

type verdict = {
  checked : int; (* tuples examined plus pairs expected *)
  mismatches : int;
  example : string option; (* first mismatch, for the error report *)
}

let int_of_value = function
  | Engine.Value.V_int c -> Some c
  | Engine.Value.V_float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let addr_of_value = function Engine.Value.V_str a -> Some a | _ -> None

(* Check the fixpoint of a Best-Path runtime. *)
let check (o : t) (rt : Core.Runtime.t) : verdict =
  let checked = ref 0 and mismatches = ref 0 and example = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr mismatches;
        if !example = None then example := Some msg)
      fmt
  in
  let optimum s d =
    match (Hashtbl.find_opt o.index s, Hashtbl.find_opt o.index d) with
    | Some i, Some j when i <> j && o.dist.(i).(j) < unreachable -> Some o.dist.(i).(j)
    | _ -> None
  in
  let check_cost rel at d c =
    match optimum at d with
    | None -> fail "%s at %s: no path to %s exists" rel at d
    | Some best ->
      if c <> best then fail "%s at %s to %s: cost %d, optimum %d" rel at d c best
  in
  let answered rel =
    let seen = Hashtbl.create 256 in
    List.iter
      (fun (at, (tu : Engine.Tuple.t)) ->
        incr checked;
        if Engine.Tuple.arity tu < 3 then fail "%s at %s: malformed %s" rel at (Engine.Tuple.to_string tu)
        else begin
          let src = addr_of_value (Engine.Tuple.arg tu 0) in
          let dst = addr_of_value (Engine.Tuple.arg tu 1) in
          let cost = int_of_value (Engine.Tuple.arg tu (Engine.Tuple.arity tu - 1)) in
          match (src, dst, cost) with
          | Some s, Some d, Some c when s = at ->
            if Hashtbl.mem seen (s, d) then fail "%s at %s: two answers for %s" rel at d;
            Hashtbl.replace seen (s, d) ();
            check_cost rel at d c;
            if rel = "bestPath" then begin
              match Engine.Tuple.arg tu 2 with
              | Engine.Value.V_list hops -> (
                let hops = List.filter_map addr_of_value hops in
                let rec walk acc = function
                  | a :: (b :: _ as rest) -> (
                    match Hashtbl.find_opt o.link_cost (a, b) with
                    | Some lc -> walk (acc + lc) rest
                    | None -> None)
                  | _ -> Some acc
                in
                match (hops, List.rev hops) with
                | first :: _, last :: _ when first = s && last = d -> (
                  match walk 0 hops with
                  | Some total when total = c -> ()
                  | Some total -> fail "bestPath at %s to %s: path costs %d, claims %d" s d total c
                  | None -> fail "bestPath at %s to %s: path uses a missing link" s d)
                | _ -> fail "bestPath at %s to %s: path does not run from %s to %s" s d s d)
              | _ -> fail "bestPath at %s to %s: path is not a list" s d
            end
          | _ -> fail "%s at %s: unexpected %s" rel at (Engine.Tuple.to_string tu)
        end)
      (Core.Runtime.query_all rt rel);
    checked := !checked + o.pairs;
    if Hashtbl.length seen <> o.pairs then
      fail "%s: %d answers, %d pairs expected" rel (Hashtbl.length seen) o.pairs
  in
  answered "bestPathCost";
  answered "bestPath";
  { checked = !checked; mismatches = !mismatches; example = !example }
