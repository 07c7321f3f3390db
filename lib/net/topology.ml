(* Topology generation for the simulated network.

   The paper's evaluation (Section 6) inserts "link tables for N nodes
   with average outdegree of three" and varies N from 10 to 100; link
   costs are not specified, so we draw them uniformly from [1, 10]
   (recorded in EXPERIMENTS.md).  All generation flows from a seeded
   [Crypto.Rng], so topologies are reproducible. *)

type link = {
  l_src : string;
  l_dst : string;
  l_cost : int;
  l_latency : float; (* simulated propagation delay, seconds *)
}

type t = {
  nodes : string list;
  links : link list;
  as_of : (string, int) Hashtbl.t; (* AS assignment, for Section 5 granularity *)
}

let node_name i = Printf.sprintf "n%d" i

let nodes_of_count n = List.init n node_name

(* All constructors funnel through here so no topology can carry two
   links with the same (src, dst): the fault layer seeds verdicts and
   the reliable-delivery layer keys channels by that pair, and a
   duplicate would make [latency_between] ambiguous. *)
let validated ~(nodes : string list) ~(links : link list)
    ~(as_of : (string, int) Hashtbl.t) : t =
  let seen = Hashtbl.create (List.length links) in
  List.iter
    (fun l ->
      if Hashtbl.mem seen (l.l_src, l.l_dst) then
        invalid_arg
          (Printf.sprintf "Topology: duplicate directed link %s -> %s" l.l_src
             l.l_dst);
      Hashtbl.add seen (l.l_src, l.l_dst) ())
    links;
  { nodes; links; as_of }

(* Assign nodes round-robin to [n_as] autonomous systems. *)
let assign_as (nodes : string list) ~(n_as : int) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create (List.length nodes) in
  List.iteri (fun i node -> Hashtbl.replace tbl node (i mod max n_as 1)) nodes;
  tbl

let as_of (t : t) (node : string) : int =
  Option.value (Hashtbl.find_opt t.as_of node) ~default:0

(* Random topology with the paper's parameters: each node gets
   [outdegree] outgoing links to distinct random targets.  A spanning
   ring is laid down first so the graph is strongly connected and the
   all-pairs Best-Path query has N*(N-1) answers; remaining links are
   random.  Costs uniform in [1, max_cost]; latency uniform in
   [min_latency, max_latency]. *)
let random (rng : Crypto.Rng.t) ~(n : int) ?(outdegree = 3) ?(max_cost = 10)
    ?(min_latency = 0.01) ?(max_latency = 0.05) () : t =
  if n < 2 then invalid_arg "Topology.random: need at least 2 nodes";
  let nodes = nodes_of_count n in
  let node_arr = Array.of_list nodes in
  let cost () = 1 + Crypto.Rng.int rng max_cost in
  let latency () = min_latency +. Crypto.Rng.float rng (max_latency -. min_latency) in
  let links = ref [] in
  let seen = Hashtbl.create (n * outdegree) in
  let add_link src dst =
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.add seen (src, dst) ();
      links := { l_src = src; l_dst = dst; l_cost = cost (); l_latency = latency () } :: !links
    end
  in
  (* Ring for connectivity. *)
  for i = 0 to n - 1 do
    add_link node_arr.(i) node_arr.((i + 1) mod n)
  done;
  (* Random extra links up to the requested average outdegree. *)
  for i = 0 to n - 1 do
    let extra = outdegree - 1 in
    let attempts = ref 0 in
    let added = ref 0 in
    while !added < extra && !attempts < 20 * outdegree do
      incr attempts;
      let j = Crypto.Rng.int rng n in
      if j <> i && not (Hashtbl.mem seen (node_arr.(i), node_arr.(j))) then begin
        add_link node_arr.(i) node_arr.(j);
        incr added
      end
    done
  done;
  validated ~nodes ~links:(List.rev !links)
    ~as_of:(assign_as nodes ~n_as:(max 1 (n / 10)))

(* Small fixed topologies for tests and examples. *)

(* The three-node example of Section 4 / Figure 1: links a->b, a->c,
   b->c, unit costs. *)
let paper_example () : t =
  let mk (s, d) = { l_src = s; l_dst = d; l_cost = 1; l_latency = 0.01 } in
  validated ~nodes:[ "a"; "b"; "c" ]
    ~links:(List.map mk [ ("a", "b"); ("a", "c"); ("b", "c") ])
    ~as_of:(assign_as [ "a"; "b"; "c" ] ~n_as:1)

let line ~(n : int) ?(cost = 1) () : t =
  let nodes = nodes_of_count n in
  let links =
    List.init (n - 1) (fun i ->
        [ { l_src = node_name i; l_dst = node_name (i + 1); l_cost = cost; l_latency = 0.01 };
          { l_src = node_name (i + 1); l_dst = node_name i; l_cost = cost; l_latency = 0.01 } ])
    |> List.concat
  in
  validated ~nodes ~links ~as_of:(assign_as nodes ~n_as:1)

let ring ~(n : int) ?(cost = 1) () : t =
  let nodes = nodes_of_count n in
  let links =
    List.init n (fun i ->
        { l_src = node_name i;
          l_dst = node_name ((i + 1) mod n);
          l_cost = cost;
          l_latency = 0.01 })
  in
  validated ~nodes ~links ~as_of:(assign_as nodes ~n_as:1)

let star ~(n : int) ?(cost = 1) () : t =
  let nodes = nodes_of_count n in
  let links =
    List.concat
      (List.init (n - 1) (fun i ->
           [ { l_src = node_name 0; l_dst = node_name (i + 1); l_cost = cost; l_latency = 0.01 };
             { l_src = node_name (i + 1); l_dst = node_name 0; l_cost = cost; l_latency = 0.01 } ]))
  in
  validated ~nodes ~links ~as_of:(assign_as nodes ~n_as:1)

(* Convert links into `link` facts for a program: link(@src, dst) or
   link(@src, dst, cost). *)
let link_facts ?(with_cost = true) (t : t) : Engine.Tuple.t list =
  List.map
    (fun l ->
      let args =
        if with_cost then
          [ Engine.Value.V_str l.l_src; Engine.Value.V_str l.l_dst; Engine.Value.V_int l.l_cost ]
        else [ Engine.Value.V_str l.l_src; Engine.Value.V_str l.l_dst ]
      in
      Engine.Tuple.make "link" args)
    t.links

let find_link (t : t) ~(src : string) ~(dst : string) : link option =
  List.find_opt (fun l -> l.l_src = src && l.l_dst = dst) t.links

(* Functional topology mutation for link churn: the returned topology
   shares everything but the removed link; removing an absent link is
   the identity. *)
let remove_link (t : t) ~(src : string) ~(dst : string) : t =
  { t with
    links = List.filter (fun l -> not (l.l_src = src && l.l_dst = dst)) t.links }

(* Latency of a *directed physical link*; raises on a missing one so
   callers can't silently confuse overlay reachability with adjacency. *)
let latency_between (t : t) ~(src : string) ~(dst : string) : float =
  match find_link t ~src ~dst with
  | Some l -> l.l_latency
  | None ->
    invalid_arg
      (Printf.sprintf "Topology.latency_between: no directed link %s -> %s" src
         dst)

(* Delivery delay for the runtime's message path: link latency when the
   nodes are physically adjacent, otherwise a fixed overlay delay
   (non-adjacent sends happen in e.g. the chord overlay and traceback). *)
let overlay_latency = 0.02

let delivery_latency (t : t) ~(src : string) ~(dst : string) : float =
  match find_link t ~src ~dst with
  | Some l -> l.l_latency
  | None -> overlay_latency

let avg_outdegree (t : t) : float =
  float_of_int (List.length t.links) /. float_of_int (List.length t.nodes)
