(* A ground tuple: relation name plus argument values, carrying its
   hash.  [make] and [of_array] are the only constructors, so the hash
   is computed once per tuple and every table lookup after that reads
   a field. *)

type t = {
  rel : string;
  args : Value.t array;
  hash : int;
}

let of_array rel args =
  { rel;
    args;
    hash = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) (Hashtbl.hash rel) args }

let make rel args = of_array rel (Array.of_list args)

let arity t = Array.length t.args

let arg t i =
  if i < 0 || i >= Array.length t.args then
    invalid_arg (Printf.sprintf "Tuple.arg: %s has no argument %d" t.rel i);
  t.args.(i)

let compare (a : t) (b : t) : int =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else begin
    let la = Array.length a.args and lb = Array.length b.args in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i >= la then 0
        else begin
          let c = Value.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    end
  end

(* Equal tuples have equal hashes, so unequal hashes settle most
   mismatches without walking the arguments. *)
let equal a b = a == b || (a.hash = b.hash && compare a b = 0)

let hash (t : t) : int = t.hash

let to_string (t : t) : string =
  Printf.sprintf "%s(%s)" t.rel
    (String.concat ", " (Array.to_list (Array.map Value.to_string t.args)))

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Projection of the key columns, used by keyed (replace-semantics)
   relations. *)
let key_of (t : t) (positions : int list) : Value.t list =
  List.map (arg t) positions

(* Like [key_of] but total: [None] when a position is out of range.
   Secondary indexes over a relation of mixed arities skip tuples the
   column subset does not project. *)
let key_opt (t : t) (positions : int list) : Value.t list option =
  let n = Array.length t.args in
  if List.for_all (fun i -> i >= 0 && i < n) positions then
    Some (List.map (fun i -> t.args.(i)) positions)
  else None

(* A canonical string identity, used as BDD variable name for base
   tuples and as Bloom-filter key. *)
let identity (t : t) : string = to_string t

(* Wire size of the tuple payload (relation name + args), matching
   [Net.Wire]. *)
let wire_size (t : t) : int =
  4 + String.length t.rel
  + Array.fold_left (fun acc v -> acc + Value.wire_size v) 4 t.args

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Hashed)

module Addr_table = Hashtbl.Make (struct
  type nonrec t = string * t

  let equal (a, x) (b, y) = String.equal a b && equal x y
  let hash (a, x) = (Hashtbl.hash a * 31) + x.hash
end)
