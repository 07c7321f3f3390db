(* Reduced Ordered Binary Decision Diagrams (Bryant 1986).

   Substitute for the BuDDy library the paper uses to encode condensed
   provenance expressions (Section 4.4).  Nodes are hash-consed inside
   a [manager] so that structural equality of boolean functions is
   pointer equality of node ids; this is what makes the condensation
   `<a + a*b> -> <a>` automatic (absorption falls out of reduction). *)

type node =
  | False
  | True
  | Node of { id : int; var : int; lo : node; hi : node }

type t = node

let id = function False -> 0 | True -> 1 | Node { id; _ } -> id

(* The unique table and apply caches are the hottest lookups in
   condensation.  Their keys are small int triples/pairs; dedicated
   hash functions over the fields beat the generic polymorphic hash
   (which walks the boxed tuple) on every probe. *)
module Triple_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (((a * 31) + b) * 31) + c
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 31) + b
end)

module Int_tbl = Hashtbl.Make (Int)

type manager = {
  unique : node Triple_tbl.t; (* (var, lo id, hi id) -> node *)
  and_cache : node Pair_tbl.t;
  or_cache : node Pair_tbl.t;
  not_cache : node Int_tbl.t;
  mutable next_id : int;
  var_names : (int, string) Hashtbl.t;
  var_ids : (string, int) Hashtbl.t;
  mutable next_var : int;
}

(* Tables start small and grow on demand: most managers are the
   scratch ones that decode a single shipped block of a few nodes. *)
let create_manager () =
  { unique = Triple_tbl.create 16;
    and_cache = Pair_tbl.create 16;
    or_cache = Pair_tbl.create 16;
    not_cache = Int_tbl.create 16;
    next_id = 2;
    var_names = Hashtbl.create 16;
    var_ids = Hashtbl.create 16;
    next_var = 0 }

let bot : t = False
let top : t = True

(* Hash-consed node constructor; enforces the two ROBDD invariants
   (no redundant test, no duplicate node). *)
let mk (m : manager) ~var ~lo ~hi : t =
  if id lo = id hi then lo
  else begin
    let key = (var, id lo, id hi) in
    match Triple_tbl.find_opt m.unique key with
    | Some n -> n
    | None ->
      let n = Node { id = m.next_id; var; lo; hi } in
      m.next_id <- m.next_id + 1;
      Triple_tbl.add m.unique key n;
      n
  end

(* Named variables: provenance condensation keys variables by base
   tuple / principal names. *)
let var_of_name (m : manager) (name : string) : int =
  match Hashtbl.find_opt m.var_ids name with
  | Some v -> v
  | None ->
    let v = m.next_var in
    m.next_var <- m.next_var + 1;
    Hashtbl.add m.var_ids name v;
    Hashtbl.add m.var_names v name;
    v

let name_of_var (m : manager) (v : int) : string =
  match Hashtbl.find_opt m.var_names v with
  | Some s -> s
  | None -> Printf.sprintf "x%d" v

let var (m : manager) (v : int) : t = mk m ~var:v ~lo:False ~hi:True

let named_var (m : manager) (name : string) : t = var m (var_of_name m name)

let rec bdd_not (m : manager) (a : t) : t =
  match a with
  | False -> True
  | True -> False
  | Node { id = aid; var; lo; hi } -> (
    match Int_tbl.find_opt m.not_cache aid with
    | Some r -> r
    | None ->
      let r = mk m ~var ~lo:(bdd_not m lo) ~hi:(bdd_not m hi) in
      Int_tbl.add m.not_cache aid r;
      r)

(* Binary apply for a specific operation, with memoisation keyed on the
   (commutative-normalised) pair of node ids. *)
let rec apply_and (m : manager) (a : t) (b : t) : t =
  match (a, b) with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | Node na, Node nb ->
    if na.id = nb.id then a
    else begin
      let key = if na.id <= nb.id then (na.id, nb.id) else (nb.id, na.id) in
      match Pair_tbl.find_opt m.and_cache key with
      | Some r -> r
      | None ->
        let v = min na.var nb.var in
        let alo, ahi = if na.var = v then (na.lo, na.hi) else (a, a) in
        let blo, bhi = if nb.var = v then (nb.lo, nb.hi) else (b, b) in
        let r = mk m ~var:v ~lo:(apply_and m alo blo) ~hi:(apply_and m ahi bhi) in
        Pair_tbl.add m.and_cache key r;
        r
    end

let rec apply_or (m : manager) (a : t) (b : t) : t =
  match (a, b) with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | Node na, Node nb ->
    if na.id = nb.id then a
    else begin
      let key = if na.id <= nb.id then (na.id, nb.id) else (nb.id, na.id) in
      match Pair_tbl.find_opt m.or_cache key with
      | Some r -> r
      | None ->
        let v = min na.var nb.var in
        let alo, ahi = if na.var = v then (na.lo, na.hi) else (a, a) in
        let blo, bhi = if nb.var = v then (nb.lo, nb.hi) else (b, b) in
        let r = mk m ~var:v ~lo:(apply_or m alo blo) ~hi:(apply_or m ahi bhi) in
        Pair_tbl.add m.or_cache key r;
        r
    end

let band = apply_and
let bor = apply_or
let bnot = bdd_not


let equal (a : t) (b : t) = id a = id b
let is_true = function True -> true | False | Node _ -> false
let is_false = function False -> true | True | Node _ -> false

(* [restrict m a v value] fixes variable [v] to [value]. *)
let restrict (m : manager) (a : t) (v : int) (value : bool) : t =
  let cache = Hashtbl.create 64 in
  let rec go a =
    match a with
    | False | True -> a
    | Node { id = aid; var; lo; hi } ->
      if var > v then a
      else if var = v then if value then hi else lo
      else begin
        match Hashtbl.find_opt cache aid with
        | Some r -> r
        | None ->
          let r = mk m ~var ~lo:(go lo) ~hi:(go hi) in
          Hashtbl.add cache aid r;
          r
      end
  in
  go a

(* Existential quantification of variable [v]. *)
let exists (m : manager) (a : t) (v : int) : t =
  bor m (restrict m a v false) (restrict m a v true)

(* [eval a assignment] evaluates the function under a total assignment
   (variables absent from the map default to false). *)
let eval (a : t) (assignment : int -> bool) : bool =
  let rec go = function
    | True -> true
    | False -> false
    | Node { var; lo; hi; _ } -> if assignment var then go hi else go lo
  in
  go a

(* Support: the set of variables the function actually depends on. *)
let support (a : t) : int list =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go = function
    | False | True -> ()
    | Node { id; var; lo; hi } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        Hashtbl.replace vars var ();
        go lo;
        go hi
      end
  in
  go a;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort Stdlib.compare

(* Satisfying-assignment count over [nvars] ordered variables.
   [count node level] counts assignments of variables [level..nvars-1];
   a node tested at variable [var] has [var - level] free variables
   above it, each doubling the count. *)
let sat_count (a : t) ~(nvars : int) : float =
  let cache = Hashtbl.create 64 in
  let rec count node level =
    match node with
    | False -> 0.0
    | True -> 2.0 ** Float.of_int (nvars - level)
    | Node { id; var; lo; hi } -> (
      let key = (id, level) in
      match Hashtbl.find_opt cache key with
      | Some r -> r
      | None ->
        let gap = 2.0 ** Float.of_int (var - level) in
        let r = gap *. (count lo (var + 1) +. count hi (var + 1)) in
        Hashtbl.add cache key r;
        r)
  in
  count a 0

(* One satisfying assignment as (var, value) pairs, or None. *)
let any_sat (a : t) : (int * bool) list option =
  let rec go acc = function
    | False -> None
    | True -> Some (List.rev acc)
    | Node { var; lo; hi; _ } -> (
      match go ((var, true) :: acc) hi with
      | Some r -> Some r
      | None -> go ((var, false) :: acc) lo)
  in
  go [] a

(* All prime-free cubes via simple DFS enumeration: each path to True
   is a conjunction of literals.  Used to decode condensed provenance
   back into a sum-of-products for display. *)
let all_cubes (a : t) : (int * bool) list list =
  let rec go acc = function
    | False -> []
    | True -> [ List.rev acc ]
    | Node { var; lo; hi; _ } ->
      go ((var, false) :: acc) lo @ go ((var, true) :: acc) hi
  in
  go [] a

(* Positive cubes: drop negative literals, dedupe, and remove cubes
   subsumed by smaller ones.  For monotone functions (provenance
   expressions are built from AND/OR only, hence monotone) this yields
   the minimal sum-of-products, e.g. a+a*b -> a. *)
let positive_cubes (a : t) : int list list =
  let cubes =
    all_cubes a
    |> List.map (fun cube ->
           List.filter_map (fun (v, b) -> if b then Some v else None) cube)
    |> List.map (List.sort_uniq Stdlib.compare)
    |> List.sort_uniq Stdlib.compare
  in
  let subsumes small big = List.for_all (fun v -> List.mem v big) small in
  List.filter
    (fun c -> not (List.exists (fun c' -> c' <> c && subsumes c' c) cubes))
    cubes

(* Render as a provenance annotation string: `<a+a*b>` style, using
   variable names from the manager and '+' / '*' as in Figure 2. *)
let to_annotation (m : manager) (a : t) : string =
  match a with
  | False -> "<0>"
  | True -> "<1>"
  | Node _ ->
    let cubes = positive_cubes a in
    let cube_str c = String.concat "*" (List.map (name_of_var m) c) in
    "<" ^ String.concat "+" (List.map cube_str cubes) ^ ">"

(* Serialized form used for wire-size accounting: nodes in post-order,
   each as (var, lo, hi) of fixed width. *)
let serialize (a : t) : string =
  let buf = Buffer.create 64 in
  let seen = Hashtbl.create 64 in
  let emit_int i =
    Buffer.add_char buf (Char.chr ((i lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((i lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((i lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (i land 0xFF))
  in
  let rec go = function
    | False | True -> ()
    | Node { id = nid; var; lo; hi } ->
      if not (Hashtbl.mem seen nid) then begin
        Hashtbl.add seen nid ();
        go lo;
        go hi;
        emit_int nid;
        emit_int var;
        emit_int (id lo);
        emit_int (id hi)
      end
  in
  go a;
  emit_int (id a);
  Buffer.contents buf

let serialized_size (a : t) : int = String.length (serialize a)

exception Deserialize_error of string

(* Inverse of [serialize]: rebuild the function inside [m] (ids are
   remapped through the manager's hash-consing).  The sub-range form
   lets a wire decoder hand over its receive buffer directly instead
   of copying the BDD tail out first. *)
let deserialize_sub (m : manager) (s : string) ~(pos : int) ~(len : int) : t =
  if pos < 0 || len < 0 || pos + len > String.length s then
    raise (Deserialize_error "range outside buffer");
  let n = len in
  if n < 4 || n mod 16 <> 4 then raise (Deserialize_error "bad length");
  let read_int off =
    let off = pos + off in
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]
  in
  let mapping = Hashtbl.create 64 in
  Hashtbl.replace mapping 0 False;
  Hashtbl.replace mapping 1 True;
  let resolve i =
    match Hashtbl.find_opt mapping i with
    | Some node -> node
    | None -> raise (Deserialize_error (Printf.sprintf "dangling node id %d" i))
  in
  let records = (n - 4) / 16 in
  for r = 0 to records - 1 do
    let off = r * 16 in
    let old_id = read_int off in
    let var = read_int (off + 4) in
    let lo = resolve (read_int (off + 8)) in
    let hi = resolve (read_int (off + 12)) in
    Hashtbl.replace mapping old_id (mk m ~var ~lo ~hi)
  done;
  resolve (read_int (n - 4))

let deserialize (m : manager) (s : string) : t =
  deserialize_sub m s ~pos:0 ~len:(String.length s)
