(* Provenance expressions: the free commutative semiring over base
   tuple keys.  A tuple's annotation is built during evaluation -
   [Times] across the body tuples of one derivation, [Plus] across
   alternative derivations - and later evaluated into any concrete
   semiring ([eval]) or condensed into a BDD ([Condense]). *)

type t =
  | Zero
  | One
  | Base of string (* key of a base tuple / asserting principal *)
  | Plus of t * t
  | Times of t * t

let rec equal a b =
  match (a, b) with
  | Zero, Zero | One, One -> true
  | Base x, Base y -> String.equal x y
  | Plus (a1, a2), Plus (b1, b2) | Times (a1, a2), Times (b1, b2) ->
    equal a1 b1 && equal a2 b2
  | (Zero | One | Base _ | Plus _ | Times _), _ -> false

(* Smart constructors applying the semiring identities (0+x = x,
   1*x = x, 0*x = 0) so expressions stay small during evaluation. *)
let zero = Zero
let one = One
let base k = Base k

let plus a b =
  match (a, b) with
  | Zero, x | x, Zero -> x
  | a, b -> Plus (a, b)

let times a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, x | x, One -> x
  | a, b -> Times (a, b)

let times_list (l : t list) : t = List.fold_left times One l
let plus_list (l : t list) : t = List.fold_left plus Zero l

(* Homomorphic evaluation into a semiring, mapping each base key
   through [assign]. *)
let eval (type a) (module S : Semiring.S with type t = a) ~(assign : string -> a)
    (e : t) : a =
  let rec go = function
    | Zero -> S.zero
    | One -> S.one
    | Base k -> assign k
    | Plus (x, y) -> S.plus (go x) (go y)
    | Times (x, y) -> S.times (go x) (go y)
  in
  go e

(* The base keys appearing in the expression. *)
let bases (e : t) : string list =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | Zero | One -> ()
    | Base k -> Hashtbl.replace tbl k ()
    | Plus (x, y) | Times (x, y) ->
      go x;
      go y
  in
  go e;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort String.compare

(* Syntax matching the paper's annotations: + for union, * for join,
   e.g. <a+a*b>. *)
let to_string (e : t) : string =
  let rec go ~parent = function
    | Zero -> "0"
    | One -> "1"
    | Base k -> k
    | Plus (x, y) ->
      let s = go ~parent:`Plus x ^ "+" ^ go ~parent:`Plus y in
      if parent = `Times then "(" ^ s ^ ")" else s
    | Times (x, y) -> go ~parent:`Times x ^ "*" ^ go ~parent:`Times y
  in
  go ~parent:`Top e

let to_annotation (e : t) : string = "<" ^ to_string e ^ ">"

(* AC-canonical rendering.  [Plus] and [Times] are commutative and
   associative, but evaluation order leaks into the tree shape, so two
   semantically equal annotations can print differently under
   {!to_string} (e.g. <a*b> vs <b*a> when derivations are discovered
   in a different order).  Flatten each operator's operand list and
   sort the rendered operands, recursively, for an order-insensitive
   form; the shard byte-identity tests compare these. *)
let canonical_string (e : t) : string =
  let rec plus_terms = function
    | Plus (a, b) -> plus_terms a @ plus_terms b
    | e -> [ e ]
  in
  let rec times_terms = function
    | Times (a, b) -> times_terms a @ times_terms b
    | e -> [ e ]
  in
  let rec go ~parent e =
    match e with
    | Zero -> "0"
    | One -> "1"
    | Base k -> k
    | Plus _ ->
      let s =
        plus_terms e
        |> List.map (go ~parent:`Plus)
        |> List.sort String.compare |> String.concat "+"
      in
      if parent = `Times then "(" ^ s ^ ")" else s
    | Times _ ->
      times_terms e
      |> List.map (go ~parent:`Times)
      |> List.sort String.compare |> String.concat "*"
  in
  go ~parent:`Top e

(* Size in bytes of the expression written uncondensed: a flattened
   prefix encoding with one byte per operator and length-prefixed
   keys.  Storage accounting and traceback costs measure with it. *)
let rec wire_size = function
  | Zero | One -> 1
  | Base k -> 1 + 2 + String.length k
  | Plus (x, y) | Times (x, y) -> 1 + wire_size x + wire_size y

(* Evaluation into the boolean semiring under a trusted-set
   interpretation: is the tuple derivable using only trusted bases? *)
let derivable_from ~(trusted : string -> bool) (e : t) : bool =
  eval (module Semiring.Boolean) ~assign:trusted e

(* Number of distinct derivations (counting semiring). *)
let count_derivations (e : t) : int =
  eval (module Semiring.Counting) ~assign:(fun _ -> 1) e

(* Security level (Section 4.5): plus = max, times = min over the
   levels of asserting principals. *)
let security_level ~(level : string -> int) (e : t) : int =
  eval (module Semiring.Security_level) ~assign:level e

(* Why-provenance with absorption applied, the set analogue of the
   condensation in Section 4.4. *)
let minimal_why (e : t) : Semiring.String_set_set.t =
  eval
    (module Semiring.Why)
    ~assign:(fun k -> Semiring.String_set_set.singleton (Semiring.String_set.singleton k))
    e
  |> Semiring.minimal_witnesses

(* Vote counting (Section 4.5): the number of distinct principals
   with at least one derivation consisting solely of their assertions
   is not expressible per se, so the paper's "over K principals assert
   the update" test instead asks: how many distinct principals appear
   across the minimal witnesses that are singletons, or more usefully,
   for how many principals P the tuple is derivable trusting P's
   assertions plus the infrastructure set. We expose the building
   block: derivability restricted to one principal. *)
let asserted_solely_by (e : t) ~(principal_of : string -> string option)
    (p : string) : bool =
  derivable_from e ~trusted:(fun k ->
      match principal_of k with
      | Some q -> String.equal p q
      | None -> false)

let vote_count (e : t) ~(principal_of : string -> string option)
    ~(principals : string list) : int =
  List.length (List.filter (asserted_solely_by e ~principal_of) principals)
