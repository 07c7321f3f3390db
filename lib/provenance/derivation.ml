(* Derivation trees with the paper's annotations (Figures 1 and 2).

   A node of the tree is either a base tuple (a leaf) or the result of
   applying a rule (an oval in the figures) to child subtrees; [union]
   combines alternative derivations of the same tuple.  Every node is
   annotated with:
   - the location where the step executed (Section 4: "we annotate
     each derivation with its location"),
   - creation timestamp and time-to-live (soft state),
   - optionally the asserting principal ("P says ...", Figure 2) and
     its signature (authenticated provenance, Section 4.3). *)

type annotation = {
  a_location : string; (* where the step executed: "@a" in Figure 1 *)
  a_created : float;
  a_ttl : float option;
  a_says : string option; (* asserting principal, Figure 2 *)
  a_signature : string option; (* raw signature bytes, Section 4.3 *)
}

let annot ?(created = 0.0) ?ttl ?says ?signature location =
  { a_location = location; a_created = created; a_ttl = ttl; a_says = says;
    a_signature = signature }

type t =
  | Leaf of { tuple : string; ann : annotation }
  | Rule of { rule : string; tuple : string; ann : annotation; children : t list }
  | Union of { tuple : string; location : string; alternatives : t list }
  | Unreachable of { tuple : string; location : string }
      (* traceback could not reach [location] (crashed node, exhausted
         retries): the subtree rooted here is unknown (Section 4.1's
         graceful degradation under partial failure) *)
  | Shared of { tuple : string; location : string }
      (* another visit to the subtree of [tuple] held at [location]:
         shown in full where the walk finished it, earlier in the same
         tree, or an enclosing subtree the walk had not finished (a
         cycle in the records) *)

let tuple_of = function
  | Leaf { tuple; _ } | Rule { tuple; _ } | Union { tuple; _ }
  | Unreachable { tuple; _ } | Shared { tuple; _ } ->
    tuple

let location_of = function
  | Leaf { ann; _ } | Rule { ann; _ } -> ann.a_location
  | Union { location; _ } | Unreachable { location; _ } | Shared { location; _ } -> location

(* Base tuples at the leaves: "one can use this tree to figure out the
   initial input base tuples".  An [Unreachable] stub contributes no
   base tuples - its subtree is unknown, not empty - and a [Shared]
   reference none - its subtree lists them where it appears in full. *)
let rec leaves = function
  | Leaf { tuple; _ } -> [ tuple ]
  | Rule { children; _ } -> List.concat_map leaves children
  | Union { alternatives; _ } -> List.concat_map leaves alternatives
  | Unreachable _ | Shared _ -> []

let rec depth = function
  | Leaf _ | Unreachable _ | Shared _ -> 1
  | Rule { children; _ } ->
    1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children
  | Union { alternatives; _ } ->
    List.fold_left (fun acc c -> max acc (depth c)) 0 alternatives

let rec unreachable_leaves = function
  | Leaf _ | Shared _ -> []
  | Rule { children; _ } -> List.concat_map unreachable_leaves children
  | Union { alternatives; _ } -> List.concat_map unreachable_leaves alternatives
  | Unreachable { location; _ } -> [ location ]

(* The provenance expression of the tree (Section 4.4): [leaf] keys
   each leaf, rule nodes multiply children, unions add alternatives.
   An unreachable subtree maps to zero, which annihilates the product
   it sits in (that derivation cannot be confirmed) while leaving
   sibling alternatives in a union intact.  A [Shared] reference takes
   the expression of the subtree it names, memoized by location and
   tuple as the fold finishes each subtree, in the walk's order; a
   reference the fold cannot resolve that way (a subtree still being
   folded: a cycle) maps through [unresolved]. *)
let fold_expr ~(leaf : string -> annotation -> Prov_expr.t)
    ~(unresolved : string -> Prov_expr.t) (t : t) : Prov_expr.t =
  let memo = Hashtbl.create 16 in
  let rec go path node =
    let key = (location_of node, tuple_of node) in
    match node with
    | Shared { tuple; _ } -> (
      match Hashtbl.find_opt memo key with
      | Some e when not (List.mem key path) -> e
      | Some _ | None -> unresolved tuple)
    | Leaf _ | Rule _ | Union _ | Unreachable _ ->
      let path = key :: path in
      let e =
        match node with
        | Leaf { tuple; ann } -> leaf tuple ann
        | Rule { children; _ } -> Prov_expr.times_list (List.map (go path) children)
        | Union { alternatives; _ } -> Prov_expr.plus_list (List.map (go path) alternatives)
        | Unreachable _ | Shared _ -> Prov_expr.zero
      in
      Hashtbl.replace memo key e;
      e
  in
  go [] t

(* Leaves keyed by the asserting principal when present (Figure 2);
   a cycle contributes zero. *)
let to_expr (t : t) : Prov_expr.t =
  fold_expr t
    ~leaf:(fun tuple ann -> Prov_expr.base (Option.value ann.a_says ~default:tuple))
    ~unresolved:(fun _ -> Prov_expr.zero)

(* Keyed by base tuple identity instead of principal; a reference to a
   subtree outside [t] names its tuple. *)
let to_expr_by_tuple (t : t) : Prov_expr.t =
  fold_expr t ~leaf:(fun tuple _ -> Prov_expr.base tuple) ~unresolved:Prov_expr.base

(* All locations that took part in the derivation; used for
   AS-granularity aggregation (Section 5). *)
let rec locations = function
  | Leaf { ann; _ } -> [ ann.a_location ]
  | Rule { ann; children; _ } ->
    ann.a_location :: List.concat_map locations children
  | Union { alternatives; _ } -> List.concat_map locations alternatives
  | Unreachable { location; _ } | Shared { location; _ } -> [ location ]

(* Are all signatures present and all nodes attributed?  The runtime
   performs real verification; this checks structural completeness of
   an authenticated tree (Section 4.3). *)
let rec fully_attributed = function
  | Leaf { ann; _ } -> ann.a_says <> None
  | Rule { ann; children; _ } -> ann.a_says <> None && List.for_all fully_attributed children
  | Union { alternatives; _ } -> List.for_all fully_attributed alternatives
  | Unreachable _ -> false
  | Shared _ -> true (* checked where the subtree appears in full *)

(* ASCII rendering in the spirit of Figures 1-2. *)
let to_string (t : t) : string =
  let buf = Buffer.create 256 in
  let rec go indent t =
    let pad = String.make indent ' ' in
    (match t with
    | Leaf { tuple; ann } ->
      let says = match ann.a_says with Some p -> p ^ " says " | None -> "" in
      Buffer.add_string buf (Printf.sprintf "%s%s%s@%s\n" pad says tuple ann.a_location)
    | Rule { rule; tuple; ann; children } ->
      let says = match ann.a_says with Some p -> p ^ " says " | None -> "" in
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  <- %s@%s\n" pad says tuple rule ann.a_location);
      List.iter (go (indent + 2)) children
    | Union { tuple; location; alternatives } ->
      Buffer.add_string buf (Printf.sprintf "%s%s  <- union@%s\n" pad tuple location);
      List.iter (go (indent + 2)) alternatives
    | Unreachable { tuple; location } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s  <- unreachable@%s\n" pad tuple location)
    | Shared { tuple; location } ->
      Buffer.add_string buf (Printf.sprintf "%s%s  <- shared@%s\n" pad tuple location));
  in
  go 0 t;
  Buffer.contents buf

(* --- derivation latency / critical path ------------------------------ *)

(* When a tree's [a_created] stamps carry the virtual clock (as the
   runtime's traceback trees do), the tree doubles as a latency
   profile of the derivation chain: a tuple *completes* when its own
   derivation step has executed and all its inputs are complete.

   - A leaf completes at its creation time (base-fact installation).
   - A rule node completes at the latest of its own stamp and its
     children's completions (it could not fire before its last input).
   - A union completes at the *earliest* alternative: the tuple exists
     as soon as any one derivation lands (later alternatives only add
     provenance).
   - An unreachable stub contributes nothing (0.0): its subtree's
     timing is unknown, so it never inflates the path.  Neither does a
     shared reference: its subtree's timing counts where it appears in
     full. *)
let rec completion = function
  | Leaf { ann; _ } -> ann.a_created
  | Rule { ann; children; _ } ->
    List.fold_left (fun acc c -> Float.max acc (completion c)) ann.a_created children
  | Union { alternatives; _ } ->
    List.fold_left
      (fun acc c -> Float.min acc (completion c))
      Float.infinity alternatives
    |> fun v -> if v = Float.infinity then 0.0 else v
  | Unreachable _ | Shared _ -> 0.0

(* The chain of tree nodes that determined the root's completion time:
   at a rule node the slowest child, at a union the earliest
   alternative.  Speeding up anything *on* this path moves the
   completion time; anything off it has slack. *)
let rec critical_path (t : t) : t list =
  match t with
  | Leaf _ | Unreachable _ | Shared _ -> [ t ]
  | Rule { ann; children; _ } -> (
    let slowest =
      List.fold_left
        (fun acc c ->
          match acc with
          | None -> Some c
          | Some best -> if completion c > completion best then Some c else acc)
        None children
    in
    match slowest with
    | Some c when completion c >= ann.a_created -> t :: critical_path c
    | _ -> [ t ] (* own stamp dominates (or no children) *))
  | Union { alternatives; _ } -> (
    let earliest =
      List.fold_left
        (fun acc c ->
          match acc with
          | None -> Some c
          | Some best -> if completion c < completion best then Some c else acc)
        None alternatives
    in
    match earliest with Some c -> t :: critical_path c | None -> [ t ])

(* ASCII rendering of the latency profile: every node shows its
   completion time (virtual seconds) and nodes on the critical path
   are marked with [*].  The rendering is the causal complement of the
   span trace: the trace shows where wall/virtual time went per
   handler, this shows which derivation chain gated the tuple. *)
let to_latency_string (t : t) : string =
  let on_path =
    (* Physical identity is enough: critical_path returns subterms of
       [t] itself. *)
    let path = critical_path t in
    fun node -> List.memq node path
  in
  let buf = Buffer.create 256 in
  let rec go indent node =
    let pad = String.make indent ' ' in
    let mark = if on_path node then "* " else "  " in
    let at = completion node in
    (match node with
    | Leaf { tuple; ann } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s@%s  t=%.6f\n" pad mark tuple ann.a_location at)
    | Rule { rule; tuple; ann; children } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  <- %s@%s  t=%.6f\n" pad mark tuple rule
           ann.a_location at);
      List.iter (go (indent + 2)) children
    | Union { tuple; location; alternatives } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  <- union@%s  t=%.6f\n" pad mark tuple location at);
      List.iter (go (indent + 2)) alternatives
    | Unreachable { tuple; location } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  <- unreachable@%s  t=?\n" pad mark tuple location)
    | Shared { tuple; location } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  <- shared@%s  t=?\n" pad mark tuple location))
  in
  go 0 t;
  Buffer.contents buf

(* The Figure 1 tree: reachable(@a,c) over links a->b, a->c, b->c,
   derived both directly (r1 on link(a,c)) and transitively (r2 on
   link(a,b) and reachable(b,c)).  Used by tests and the quickstart. *)
let figure1 () : t =
  let leaf loc tuple = Leaf { tuple; ann = annot loc } in
  Union
    { tuple = "reachable(a,c)";
      location = "a";
      alternatives =
        [ Rule
            { rule = "r1"; tuple = "reachable(a,c)"; ann = annot "a";
              children = [ leaf "a" "link(a,c)" ] };
          Rule
            { rule = "r2"; tuple = "reachable(a,c)"; ann = annot "a";
              children =
                [ leaf "a" "link(a,b)";
                  Rule
                    { rule = "r1"; tuple = "reachable(b,c)"; ann = annot "b";
                      children = [ leaf "b" "link(b,c)" ] } ] } ] }

(* The Figure 2 tree: same derivations within SeNDlog contexts, every
   node asserted by its principal; the provenance keys are principals,
   giving <a + a*b>. *)
let figure2 () : t =
  let leaf loc says tuple = Leaf { tuple; ann = annot ~says loc } in
  Union
    { tuple = "reachable(a,c)";
      location = "a";
      alternatives =
        [ Rule
            { rule = "s1"; tuple = "reachable(a,c)"; ann = annot ~says:"a" "a";
              children = [ leaf "a" "a" "link(a,c)" ] };
          Rule
            { rule = "s3"; tuple = "reachable(a,c)"; ann = annot ~says:"a" "a";
              children =
                [ leaf "a" "a" "linkD(b,a)";
                  Rule
                    { rule = "s1"; tuple = "reachable(b,c)"; ann = annot ~says:"b" "b";
                      children = [ leaf "b" "b" "link(b,c)" ] } ] } ] }
